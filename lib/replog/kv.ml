(** A tiny key-value state machine used by the examples: applying the
    decided log of any of the protocols in order yields a replicated KV
    store. Reads return the value at apply time, which is linearisable
    because reads go through the log. *)

type t = { table : (string, string) Hashtbl.t; mutable applied : int }

type result = Ok_unit | Value of string option

let create () = { table = Hashtbl.create 64; applied = 0 }
let copy t = { table = Hashtbl.copy t.table; applied = t.applied }

let apply t (cmd : Command.t) =
  t.applied <- t.applied + 1;
  match cmd.op with
  | Command.Noop | Command.Blob _ -> Ok_unit
  | Command.Kv_put (k, v) ->
      Hashtbl.replace t.table k v;
      Ok_unit
  | Command.Kv_get k -> Value (Hashtbl.find_opt t.table k)
  | Command.Kv_del k ->
      Hashtbl.remove t.table k;
      Ok_unit

let get t k = Hashtbl.find_opt t.table k
let applied t = t.applied
let size t = Hashtbl.length t.table

(* Serialise the state for snapshot-based transfer. Every string is
   length-prefixed, so arbitrary key/value bytes (including newlines and
   separators) round-trip. *)
let snapshot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d;" t.applied);
  (* Key-sorted, so equal stores serialise to equal bytes regardless of
     the insertion history that produced them. *)
  Det.iter_sorted ~compare_key:String.compare
    (fun k v ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s%d:%s" (String.length k) k (String.length v) v))
    t.table;
  Buffer.contents buf

let restore payload =
  let t = create () in
  let pos = ref 0 in
  let read_until sep =
    let stop = String.index_from payload !pos sep in
    let s = String.sub payload !pos (stop - !pos) in
    pos := stop + 1;
    s
  in
  let read_field () =
    let len = int_of_string (read_until ':') in
    let s = String.sub payload !pos len in
    pos := !pos + len;
    s
  in
  t.applied <- int_of_string (read_until ';');
  while !pos < String.length payload do
    let k = read_field () in
    let v = read_field () in
    Hashtbl.replace t.table k v
  done;
  t
