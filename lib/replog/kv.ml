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

(* [k] commands that change no state (no-ops, blobs), applied at once. *)
let apply_noops t k = t.applied <- t.applied + k

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

(* The grammar [snapshot] writes, "<applied>;" then "<len>:<bytes>"
   fields alternating key and value, scanned without allocating.
   [digits_end s pos i sep] is the position of the [sep] that ends a run of
   1 to 18 decimal digits starting at [pos] (short enough not to
   overflow), or -1. *)
let rec digits_end s pos i sep =
  if i >= String.length s || i - pos > 18 then -1
  else
    match s.[i] with
    | '0' .. '9' -> digits_end s pos (i + 1) sep
    | c when Char.equal c sep && i > pos -> i
    | _ -> -1

let rec digits_value s i stop acc =
  if i >= stop then acc
  else digits_value s (i + 1) stop ((10 * acc) + Char.code s.[i] - 48)

(* The position after the "<len>:<len bytes>" field at [pos], or -1. *)
let field_end s pos =
  let stop = digits_end s pos pos ':' in
  if stop < 0 then -1
  else
    let next = stop + 1 + digits_value s pos stop 0 in
    if next <= String.length s then next else -1

let rec pairs_ok s pos =
  pos = String.length s
  ||
  let k_end = field_end s pos in
  k_end >= 0
  &&
  let v_end = field_end s k_end in
  v_end >= 0 && pairs_ok s v_end

(* Whether [restore] can read [payload]. *)
let restorable payload =
  let stop = digits_end payload 0 0 ';' in
  stop >= 0 && pairs_ok payload (stop + 1)

(* Requires [restorable payload]. *)
let restore payload =
  let t = create () in
  let field pos =
    let stop = digits_end payload pos pos ':' in
    String.sub payload (stop + 1) (field_end payload pos - stop - 1)
  in
  let rec pairs pos =
    if pos < String.length payload then begin
      let k_end = field_end payload pos in
      Hashtbl.replace t.table (field pos) (field k_end);
      pairs (field_end payload k_end)
    end
  in
  let stop = digits_end payload 0 0 ';' in
  t.applied <- digits_value payload 0 stop 0;
  pairs (stop + 1);
  t
