(* Compact binary trace codec (container format v1, magic "opxtrace1").

   Layout:

     magic   "opxtrace1"                      9 raw bytes
     version uvarint                          currently 1
     meta    uvarint count, then count x      raw (len,bytes) string pairs
             (key, value)                     e.g. seed/nodes/sample.<kind>
     events  repeated until EOF:
       tag      1 byte                        Event.kind_tag
       dt_us    zigzag varint                 time delta vs previous event,
                                              in integer microseconds
       node     zigzag varint
       fields   per kind: ints as zigzag varints, ballots as three zigzag
                varints (n, prio, pid), strings interned (below)

   Strings inside events are interned: the first occurrence is written as a
   0 marker followed by raw (len,bytes) and enters the table (while the
   table is below [max_interned] entries); later occurrences are a 1-based
   table index. Encoder and decoder grow their tables under the identical
   rule, so no table is stored in the file.

   Times are stored as microsecond deltas. [Event.to_json] prints times
   with [%.3f] (millisecond values, microsecond precision), so rounding to
   integer microseconds loses nothing relative to the JSONL round trip —
   binary-decoded and JSONL-round-tripped events compare equal.

   Everything works over [Bytes]/[Buffer] plus an abstract chunk sink and a
   pushback chunk reader, so encoding to memory, files or pipes (including
   stdin, which cannot seek) all share one code path. *)

type format = Jsonl | Bin

let magic = "opxtrace1"
let version = 1

exception Decode_error of string

(* ------------------------------------------------------------------ *)
(* Varints                                                             *)
(* ------------------------------------------------------------------ *)

let add_uvarint buf n =
  (* unsafe_chr: both operands are masked to 7 bits (the loop exits once
     the remaining value fits), so the byte is always in range. *)
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

(* Zigzag maps small-magnitude signed ints to small unsigned ones:
   0 -> 0, -1 -> 1, 1 -> 2, ... OCaml ints are 63-bit, hence the 62. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

let add_raw_string buf s =
  add_uvarint buf (String.length s);
  Buffer.add_string buf s

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let default_max_interned = 65_536

type writer = {
  out : string -> unit;
  buf : Buffer.t;
  scratch : Bytes.t;
  (* Per-event staging area for the tag and varint fields, written with
     unsafe stores and appended to [buf] in one piece — an event is ~10
     bytes, and staging turns ~10 bounds-checked Buffer calls per event
     into raw byte stores plus one add_subbytes. [write] stages at most
     [1 + 9 * 9] bytes per event (tag + up to eight 9-byte varints plus
     an interned-string index); strings bypass the scratch. *)
  mutable spos : int;
  interned : (string, int) Hashtbl.t;
  max_interned : int;
  mutable last_us : int;
  mutable w_events : int;
  mutable w_bytes : int;
}

let scratch_len = 192

let sflush w =
  if w.spos > 0 then begin
    Buffer.add_subbytes w.buf w.scratch 0 w.spos;
    w.spos <- 0
  end

let flush w =
  sflush w;
  if Buffer.length w.buf > 0 then begin
    w.out (Buffer.contents w.buf);
    Buffer.clear w.buf
  end

let put_uvarint w n =
  let s = w.scratch in
  let n = ref n and p = ref w.spos in
  while !n land lnot 0x7f <> 0 do
    Bytes.unsafe_set s !p (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    incr p;
    n := !n lsr 7
  done;
  Bytes.unsafe_set s !p (Char.unsafe_chr !n);
  w.spos <- !p + 1

let put_svarint w n = put_uvarint w (zigzag n)

let put_byte w b =
  Bytes.unsafe_set w.scratch w.spos (Char.unsafe_chr b);
  w.spos <- w.spos + 1

let writer ?(meta = []) ?(max_interned = default_max_interned) out =
  let buf = Buffer.create 65_536 in
  Buffer.add_string buf magic;
  add_uvarint buf version;
  add_uvarint buf (List.length meta);
  List.iter
    (fun (k, v) ->
      add_raw_string buf k;
      add_raw_string buf v)
    meta;
  let w =
    {
      out;
      buf;
      scratch = Bytes.create scratch_len;
      spos = 0;
      interned = Hashtbl.create 256;
      max_interned;
      last_us = 0;
      w_events = 0;
      w_bytes = Buffer.length buf;
    }
  in
  w

let add_interned w s =
  match Hashtbl.find_opt w.interned s with
  | Some i -> put_uvarint w (i + 1)
  | None ->
      put_uvarint w 0;
      sflush w;
      add_raw_string w.buf s;
      if Hashtbl.length w.interned < w.max_interned then
        Hashtbl.replace w.interned s (Hashtbl.length w.interned)

let time_to_us t = int_of_float (Float.round (t *. 1000.0))
let us_to_time us = float_of_int us /. 1000.0

let put_ballot w (b : Event.ballot) =
  put_svarint w b.Event.n;
  put_svarint w b.Event.prio;
  put_svarint w b.Event.pid

let write w (e : Event.t) =
  let before = Buffer.length w.buf in
  put_byte w (Event.kind_tag e.kind);
  let us = time_to_us e.time in
  put_svarint w (us - w.last_us);
  w.last_us <- us;
  put_svarint w e.node;
  (match e.kind with
  | Event.Ballot_increment b | Event.Leader_elected b | Event.Leader_changed b
    ->
      put_ballot w b
  | Event.Prepare_round { b; log_idx; decided_idx }
  | Event.Promise_sent { b; log_idx; decided_idx } ->
      put_ballot w b;
      put_svarint w log_idx;
      put_svarint w decided_idx
  | Event.Accept_sent { b; start_idx; count } ->
      put_ballot w b;
      put_svarint w start_idx;
      put_svarint w count
  | Event.Accepted_idx { b; log_idx } ->
      put_ballot w b;
      put_svarint w log_idx
  | Event.Decided { b; decided_idx } ->
      put_ballot w b;
      put_svarint w decided_idx
  | Event.Proposed { log_idx; cmd_id } ->
      put_svarint w log_idx;
      put_svarint w cmd_id
  | Event.Batch_flush { entries; followers; cap; trigger } ->
      put_svarint w entries;
      put_svarint w followers;
      put_svarint w cap;
      add_interned w trigger
  | Event.Cap_change { cap_from; cap_to } ->
      put_svarint w cap_from;
      put_svarint w cap_to
  | Event.Session_drop { peer; session } | Event.Session_up { peer; session }
    ->
      put_svarint w peer;
      put_svarint w session
  | Event.Link_cut { a; b } | Event.Link_heal { a; b } ->
      put_svarint w a;
      put_svarint w b
  | Event.Crashed | Event.Recovered -> ()
  | Event.Reconfig { config_id; milestone } ->
      put_svarint w config_id;
      add_interned w milestone
  | Event.Msg_send { dst; size; send_id; lc } ->
      put_svarint w dst;
      put_svarint w size;
      put_svarint w send_id;
      put_svarint w lc
  | Event.Msg_deliver { src; size; send_id; lc } ->
      put_svarint w src;
      put_svarint w size;
      put_svarint w send_id;
      put_svarint w lc
  | Event.Msg_drop { src; dst; reason; session; send_id } ->
      put_svarint w src;
      put_svarint w dst;
      add_interned w reason;
      put_svarint w session;
      put_svarint w send_id
  | Event.Snapshot_taken { idx; bytes } | Event.Snapshot_installed { idx; bytes }
    ->
      put_svarint w idx;
      put_svarint w bytes
  | Event.Log_trimmed { upto; entries } ->
      put_svarint w upto;
      put_svarint w entries
  | Event.Chaos_fault { step; fault } ->
      put_svarint w step;
      add_interned w fault
  | Event.Chaos_invoke { client; op_id; op } ->
      put_svarint w client;
      put_svarint w op_id;
      add_interned w op
  | Event.Chaos_response { client; op_id; result } ->
      put_svarint w client;
      put_svarint w op_id;
      add_interned w result
  | Event.Chaos_timeout { client; op_id } ->
      put_svarint w client;
      put_svarint w op_id);
  sflush w;
  w.w_events <- w.w_events + 1;
  w.w_bytes <- w.w_bytes + (Buffer.length w.buf - before);
  if Buffer.length w.buf >= 61_440 then flush w

let written_events w = w.w_events
let written_bytes w = w.w_bytes

(* ------------------------------------------------------------------ *)
(* Source: buffered chunk reader with format auto-detection            *)
(* ------------------------------------------------------------------ *)

type source = {
  refill : bytes -> int -> int -> int;  (* like [input]; 0 at EOF *)
  chunk : bytes;
  mutable len : int;  (* valid bytes in [chunk] *)
  mutable off : int;  (* read cursor *)
  mutable at_eof : bool;
  mutable pos : int;  (* absolute byte offset of [off], for errors *)
  mutable fmt : format;
  mutable s_meta : (string * string) list;
  mutable last_us : int;
  table : (int, string) Hashtbl.t;
  max_interned : int;
  line_buf : Buffer.t;
}

let fail s fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt s.pos

(* Ensure at least [n] unread bytes sit in [chunk] (compacting first).
   Returns the number actually available, < n only at EOF. *)
let ensure s n =
  if s.len - s.off < n && not s.at_eof then begin
    if s.off > 0 then begin
      Bytes.blit s.chunk s.off s.chunk 0 (s.len - s.off);
      s.len <- s.len - s.off;
      s.off <- 0
    end;
    let continue = ref true in
    while s.len - s.off < n && !continue do
      let got = s.refill s.chunk s.len (Bytes.length s.chunk - s.len) in
      if got = 0 then begin
        s.at_eof <- true;
        continue := false
      end
      else s.len <- s.len + got
    done
  end;
  s.len - s.off

let read_byte s =
  if ensure s 1 < 1 then fail s "offset %d: unexpected end of trace";
  let b = Bytes.get_uint8 s.chunk s.off in
  s.off <- s.off + 1;
  s.pos <- s.pos + 1;
  b

let at_end s = ensure s 1 < 1

let read_uvarint s =
  let acc = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let b = read_byte s in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
    else if !shift > 62 then fail s "offset %d: varint overflow"
  done;
  !acc

let read_svarint s = unzigzag (read_uvarint s)

let read_raw_string s =
  let n = read_uvarint s in
  (* A 9-byte varint can set bit 62 and decode negative. *)
  if n < 0 || n > 16_777_216 then
    fail s "offset %d: unreasonable string length";
  let b = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    let avail = ensure s 1 in
    if avail < 1 then fail s "offset %d: unexpected end of trace in string";
    let take = min avail (n - !filled) in
    Bytes.blit s.chunk s.off b !filled take;
    s.off <- s.off + take;
    s.pos <- s.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string b

let read_interned s =
  let v = read_uvarint s in
  if v = 0 then begin
    let str = read_raw_string s in
    if Hashtbl.length s.table < s.max_interned then
      Hashtbl.replace s.table (Hashtbl.length s.table) str;
    str
  end
  else
    match Hashtbl.find_opt s.table (v - 1) with
    | Some str -> str
    | None -> fail s "offset %d: string table index out of range"

let make_source refill =
  let s =
    {
      refill;
      chunk = Bytes.create 65_536;
      len = 0;
      off = 0;
      at_eof = false;
      pos = 0;
      fmt = Jsonl;
      s_meta = [];
      last_us = 0;
      table = Hashtbl.create 256;
      max_interned = default_max_interned;
      line_buf = Buffer.create 256;
    }
  in
  (* Sniff the magic without consuming: if the stream starts with the
     binary magic, parse the header; otherwise the bytes are the first
     JSONL line. *)
  let avail = ensure s (String.length magic) in
  let is_bin =
    avail >= String.length magic
    && String.equal
         (Bytes.sub_string s.chunk s.off (String.length magic))
         magic
  in
  if is_bin then begin
    s.fmt <- Bin;
    s.off <- s.off + String.length magic;
    s.pos <- s.pos + String.length magic;
    let v = read_uvarint s in
    if v <> version then fail s "offset %d: unsupported trace version";
    let n_meta = read_uvarint s in
    let meta = ref [] in
    for _ = 1 to n_meta do
      let k = read_raw_string s in
      let v = read_raw_string s in
      meta := (k, v) :: !meta
    done;
    s.s_meta <- List.rev !meta
  end;
  s

let of_channel ic = make_source (fun b off len -> input ic b off len)

let of_string str =
  let cursor = ref 0 in
  make_source (fun b off len ->
      let take = min len (String.length str - !cursor) in
      Bytes.blit_string str !cursor b off take;
      cursor := !cursor + take;
      take)

let source_format s = s.fmt
let meta s = s.s_meta

let read_ballot s =
  let n = read_svarint s in
  let prio = read_svarint s in
  let pid = read_svarint s in
  { Event.n; prio; pid }

let read_bin_event s : Event.t =
  let tag = read_byte s in
  let dt = read_svarint s in
  s.last_us <- s.last_us + dt;
  let time = us_to_time s.last_us in
  let node = read_svarint s in
  let i () = read_svarint s in
  let kind =
    match tag with
    | 0 -> Event.Ballot_increment (read_ballot s)
    | 1 -> Event.Leader_elected (read_ballot s)
    | 2 -> Event.Leader_changed (read_ballot s)
    | 3 ->
        let b = read_ballot s in
        let log_idx = i () in
        let decided_idx = i () in
        Event.Prepare_round { b; log_idx; decided_idx }
    | 4 ->
        let b = read_ballot s in
        let log_idx = i () in
        let decided_idx = i () in
        Event.Promise_sent { b; log_idx; decided_idx }
    | 5 ->
        let b = read_ballot s in
        let start_idx = i () in
        let count = i () in
        Event.Accept_sent { b; start_idx; count }
    | 6 ->
        let b = read_ballot s in
        let log_idx = i () in
        Event.Accepted_idx { b; log_idx }
    | 7 ->
        let b = read_ballot s in
        let decided_idx = i () in
        Event.Decided { b; decided_idx }
    | 8 ->
        let log_idx = i () in
        let cmd_id = i () in
        Event.Proposed { log_idx; cmd_id }
    | 9 ->
        let entries = i () in
        let followers = i () in
        let cap = i () in
        let trigger = read_interned s in
        Event.Batch_flush { entries; followers; cap; trigger }
    | 10 ->
        let cap_from = i () in
        let cap_to = i () in
        Event.Cap_change { cap_from; cap_to }
    | 11 ->
        let peer = i () in
        let session = i () in
        Event.Session_drop { peer; session }
    | 12 ->
        let peer = i () in
        let session = i () in
        Event.Session_up { peer; session }
    | 13 ->
        let a = i () in
        let b = i () in
        Event.Link_cut { a; b }
    | 14 ->
        let a = i () in
        let b = i () in
        Event.Link_heal { a; b }
    | 15 -> Event.Crashed
    | 16 -> Event.Recovered
    | 17 ->
        let config_id = i () in
        let milestone = read_interned s in
        Event.Reconfig { config_id; milestone }
    | 18 ->
        let dst = i () in
        let size = i () in
        let send_id = i () in
        let lc = i () in
        Event.Msg_send { dst; size; send_id; lc }
    | 19 ->
        let src = i () in
        let size = i () in
        let send_id = i () in
        let lc = i () in
        Event.Msg_deliver { src; size; send_id; lc }
    | 20 ->
        let src = i () in
        let dst = i () in
        let reason = read_interned s in
        let session = i () in
        let send_id = i () in
        Event.Msg_drop { src; dst; reason; session; send_id }
    | 21 ->
        let idx = i () in
        let bytes = i () in
        Event.Snapshot_taken { idx; bytes }
    | 22 ->
        let idx = i () in
        let bytes = i () in
        Event.Snapshot_installed { idx; bytes }
    | 23 ->
        let upto = i () in
        let entries = i () in
        Event.Log_trimmed { upto; entries }
    | 24 ->
        let step = i () in
        let fault = read_interned s in
        Event.Chaos_fault { step; fault }
    | 25 ->
        let client = i () in
        let op_id = i () in
        let op = read_interned s in
        Event.Chaos_invoke { client; op_id; op }
    | 26 ->
        let client = i () in
        let op_id = i () in
        let result = read_interned s in
        Event.Chaos_response { client; op_id; result }
    | 27 ->
        let client = i () in
        let op_id = i () in
        Event.Chaos_timeout { client; op_id }
    | t -> fail s "offset %d: unknown event tag %d" t
  in
  { Event.time; node; kind }

(* Read one JSONL line (without the newline); None at EOF. *)
let read_line s =
  if at_end s then None
  else begin
    Buffer.clear s.line_buf;
    let continue = ref true in
    while !continue do
      if at_end s then continue := false
      else
        let c = Char.chr (read_byte s) in
        if Char.equal c '\n' then continue := false
        else Buffer.add_char s.line_buf c
    done;
    Some (Buffer.contents s.line_buf)
  end

let iter s f =
  match s.fmt with
  | Bin -> (
      try
        while not (at_end s) do
          f (read_bin_event s)
        done;
        Ok ()
      with Decode_error m -> Error m)
  | Jsonl ->
      let rec loop lineno =
        match read_line s with
        | None -> Ok ()
        | Some "" -> loop (lineno + 1)
        | Some line -> (
            match Event.of_json line with
            | Ok e ->
                f e;
                loop (lineno + 1)
            | Error msg -> Error (Printf.sprintf "%d: %s" lineno msg))
      in
      loop 1

let fold s ~init ~f =
  let acc = ref init in
  match iter s (fun e -> acc := f !acc e) with
  | Ok () -> Ok !acc
  | Error _ as e -> e

let events s =
  let exhausted = ref false in
  let rec next () =
    if !exhausted then Seq.Nil
    else
      match s.fmt with
      | Bin ->
          if at_end s then begin
            exhausted := true;
            Seq.Nil
          end
          else (
            match read_bin_event s with
            | e -> Seq.Cons (Ok e, next)
            | exception Decode_error m ->
                exhausted := true;
                Seq.Cons (Error m, next))
      | Jsonl -> (
          match read_line s with
          | None ->
              exhausted := true;
              Seq.Nil
          | Some "" -> next ()
          | Some line -> (
              match Event.of_json line with
              | Ok e -> Seq.Cons (Ok e, next)
              | Error msg ->
                  exhausted := true;
                  Seq.Cons (Error msg, next)))
  in
  next
