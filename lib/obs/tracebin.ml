(* The trace format: JSONL and the compact binary container (format v1,
   magic "opxtrace1"), both encoded by one writer table ([write_fields])
   and decoded by one reader table ([Read]). Each kind's fields are listed
   once per direction, in order, with their JSONL keys; the binary format
   ignores the keys.

   Binary layout:

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

   Times are stored as microsecond deltas. JSONL prints times with [%.3f]
   (millisecond values, microsecond precision), so rounding to integer
   microseconds loses nothing relative to the JSONL round trip —
   binary-decoded and JSONL-round-tripped events compare equal. Both
   formats accept only times below 2^51 us (about 71 years) in magnitude,
   where a double in ms still resolves 1 us: the encoders raise
   [Invalid_argument] for any other time (including nan and infinities)
   and the decoders report an error.

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

let max_interned = 65_536

(* [Jsonl] writers exist only inside [to_json], where the field writers
   append JSON straight to [buf]; every other field is binary-only, and
   [to_json] fills them with shared empty values. *)
type writer = {
  fmt : format;
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

let writer ?(meta = []) out =
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
      fmt = Bin;
      out;
      buf;
      scratch = Bytes.create scratch_len;
      spos = 0;
      interned = Hashtbl.create 256;
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
      if Hashtbl.length w.interned < max_interned then
        Hashtbl.replace w.interned s (Hashtbl.length w.interned)

(* Both formats keep whole microseconds only below 2^51 us in magnitude,
   where a double in milliseconds still resolves one. *)
let max_abs_us = 1 lsl 51
let round_us t = Float.round (t *. 1000.0)

(* False for nan too. *)
let us_in_range us = Float.abs us < 0x1p51

let time_to_us t =
  let us = round_us t in
  if us_in_range us then int_of_float us
  else
    invalid_arg (Printf.sprintf "Tracebin: time %g ms is not below 2^51 us" t)

let us_to_time us = float_of_int us /. 1000.0

let json_key w key =
  Buffer.add_string w.buf {|,"|};
  Buffer.add_string w.buf key;
  Buffer.add_string w.buf {|":|}

(* JSON string escaping; reasons and milestones are short ASCII
   identifiers, but escape defensively anyway. *)
let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf {|\"|}
      | '\\' -> Buffer.add_string buf {|\\|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c when Char.code c < 0x20 ->
          Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The three field writers: a zigzag varint, an interned string or three
   varints in binary; [,"key":value] in JSONL. *)
let int_field w key v =
  match w.fmt with
  | Bin -> put_svarint w v
  | Jsonl ->
      json_key w key;
      Buffer.add_string w.buf (string_of_int v)

let str_field w key v =
  match w.fmt with
  | Bin -> add_interned w v
  | Jsonl ->
      json_key w key;
      add_json_string w.buf v

let ballot_field w key (b : Event.ballot) =
  match w.fmt with
  | Bin ->
      put_svarint w b.n;
      put_svarint w b.prio;
      put_svarint w b.pid
  | Jsonl ->
      json_key w key;
      Printf.bprintf w.buf {|{"n":%d,"prio":%d,"pid":%d}|} b.n b.prio b.pid

(* The writer table: every kind's fields, in order, with their JSONL keys.
   [Read.kind] below reads them back in the same order. *)
let write_fields w (k : Event.kind) =
  match k with
  | Ballot_increment b | Leader_elected b | Leader_changed b ->
      ballot_field w "ballot" b
  | Prepare_round { b; log_idx; decided_idx }
  | Promise_sent { b; log_idx; decided_idx } ->
      ballot_field w "ballot" b;
      int_field w "log_idx" log_idx;
      int_field w "decided_idx" decided_idx
  | Accept_sent { b; start_idx; count } ->
      ballot_field w "ballot" b;
      int_field w "start_idx" start_idx;
      int_field w "count" count
  | Accepted_idx { b; log_idx } ->
      ballot_field w "ballot" b;
      int_field w "log_idx" log_idx
  | Decided { b; decided_idx } ->
      ballot_field w "ballot" b;
      int_field w "decided_idx" decided_idx
  | Proposed { log_idx; cmd_id } ->
      int_field w "log_idx" log_idx;
      int_field w "cmd_id" cmd_id
  | Batch_flush { entries; followers; cap; trigger } ->
      int_field w "entries" entries;
      int_field w "followers" followers;
      int_field w "cap" cap;
      str_field w "trigger" trigger
  | Cap_change { cap_from; cap_to } ->
      int_field w "cap_from" cap_from;
      int_field w "cap_to" cap_to
  | Session_drop { peer; session } | Session_up { peer; session } ->
      int_field w "peer" peer;
      int_field w "session" session
  | Link_cut { a; b } | Link_heal { a; b } ->
      int_field w "a" a;
      int_field w "b" b
  | Crashed | Recovered -> ()
  | Reconfig { config_id; milestone } ->
      int_field w "config_id" config_id;
      str_field w "milestone" milestone
  | Msg_send { dst; size; send_id; lc } ->
      int_field w "dst" dst;
      int_field w "size" size;
      int_field w "send_id" send_id;
      int_field w "lc" lc
  | Msg_deliver { src; size; send_id; lc } ->
      int_field w "src" src;
      int_field w "size" size;
      int_field w "send_id" send_id;
      int_field w "lc" lc
  | Msg_drop { src; dst; reason; session; send_id } ->
      int_field w "src" src;
      int_field w "dst" dst;
      str_field w "reason" reason;
      int_field w "session" session;
      int_field w "send_id" send_id
  | Snapshot_taken { idx; bytes } | Snapshot_installed { idx; bytes } ->
      int_field w "idx" idx;
      int_field w "bytes" bytes
  | Log_trimmed { upto; entries } ->
      int_field w "upto" upto;
      int_field w "entries" entries
  | Chaos_fault { step; fault } ->
      int_field w "step" step;
      str_field w "fault" fault
  | Chaos_invoke { client; op_id; op } ->
      int_field w "client" client;
      int_field w "op_id" op_id;
      str_field w "op" op
  | Chaos_response { client; op_id; result } ->
      int_field w "client" client;
      int_field w "op_id" op_id;
      str_field w "result" result
  | Chaos_timeout { client; op_id } ->
      int_field w "client" client;
      int_field w "op_id" op_id

let write w (e : Event.t) =
  (* First, so an out-of-range time leaves the writer untouched. *)
  let us = time_to_us e.time in
  let before = Buffer.length w.buf in
  put_byte w (Event.kind_tag e.kind);
  put_svarint w (us - w.last_us);
  w.last_us <- us;
  put_svarint w e.node;
  write_fields w e.kind;
  sflush w;
  w.w_events <- w.w_events + 1;
  w.w_bytes <- w.w_bytes + (Buffer.length w.buf - before);
  if Buffer.length w.buf >= 61_440 then flush w

(* Never written to: [str_field] only interns for [Bin] writers. *)
let no_interned : (string, int) Hashtbl.t = Hashtbl.create 1

(* One JSON object, no trailing newline. Every object has "t" (simulated
   ms), "node" and "kind"; the other fields are the kind's, in table
   order. Raises [Invalid_argument] for a time [write] would reject. *)
let to_json (e : Event.t) =
  ignore (time_to_us e.time : int);
  let buf = Buffer.create 128 in
  let w =
    {
      fmt = Jsonl;
      out = ignore;
      buf;
      scratch = Bytes.empty;
      spos = 0;
      interned = no_interned;
      last_us = 0;
      w_events = 0;
      w_bytes = 0;
    }
  in
  Printf.bprintf buf {|{"t":%.3f,"node":%d,"kind":"%s"|} e.time e.node
    (Event.kind_name e.kind);
  write_fields w e.kind;
  Buffer.add_char buf '}';
  Buffer.contents buf

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
    if Hashtbl.length s.table < max_interned then
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

(* A source of field values, read by key (JSONL) or in order (binary). A
   missing or malformed field raises [Decode_error]. *)
module type FIELDS = sig
  type src

  val int : src -> string -> int
  val str : src -> string -> string
  val ballot : src -> string -> Event.ballot
end

(* The reader table: every kind's fields in [write_fields] order. Callers
   pass a tag below [Event.num_kinds]. *)
module Read (F : FIELDS) = struct
  let kind s tag : Event.kind =
    match tag with
    | 0 -> Ballot_increment (F.ballot s "ballot")
    | 1 -> Leader_elected (F.ballot s "ballot")
    | 2 -> Leader_changed (F.ballot s "ballot")
    | 3 | 4 ->
        let b = F.ballot s "ballot" in
        let log_idx = F.int s "log_idx" in
        let decided_idx = F.int s "decided_idx" in
        if tag = 3 then Prepare_round { b; log_idx; decided_idx }
        else Promise_sent { b; log_idx; decided_idx }
    | 5 ->
        let b = F.ballot s "ballot" in
        let start_idx = F.int s "start_idx" in
        let count = F.int s "count" in
        Accept_sent { b; start_idx; count }
    | 6 ->
        let b = F.ballot s "ballot" in
        let log_idx = F.int s "log_idx" in
        Accepted_idx { b; log_idx }
    | 7 ->
        let b = F.ballot s "ballot" in
        let decided_idx = F.int s "decided_idx" in
        Decided { b; decided_idx }
    | 8 ->
        let log_idx = F.int s "log_idx" in
        let cmd_id = F.int s "cmd_id" in
        Proposed { log_idx; cmd_id }
    | 9 ->
        let entries = F.int s "entries" in
        let followers = F.int s "followers" in
        let cap = F.int s "cap" in
        let trigger = F.str s "trigger" in
        Batch_flush { entries; followers; cap; trigger }
    | 10 ->
        let cap_from = F.int s "cap_from" in
        let cap_to = F.int s "cap_to" in
        Cap_change { cap_from; cap_to }
    | 11 | 12 ->
        let peer = F.int s "peer" in
        let session = F.int s "session" in
        if tag = 11 then Session_drop { peer; session }
        else Session_up { peer; session }
    | 13 | 14 ->
        let a = F.int s "a" in
        let b = F.int s "b" in
        if tag = 13 then Link_cut { a; b } else Link_heal { a; b }
    | 15 -> Crashed
    | 16 -> Recovered
    | 17 ->
        let config_id = F.int s "config_id" in
        let milestone = F.str s "milestone" in
        Reconfig { config_id; milestone }
    | 18 ->
        let dst = F.int s "dst" in
        let size = F.int s "size" in
        let send_id = F.int s "send_id" in
        let lc = F.int s "lc" in
        Msg_send { dst; size; send_id; lc }
    | 19 ->
        let src = F.int s "src" in
        let size = F.int s "size" in
        let send_id = F.int s "send_id" in
        let lc = F.int s "lc" in
        Msg_deliver { src; size; send_id; lc }
    | 20 ->
        let src = F.int s "src" in
        let dst = F.int s "dst" in
        let reason = F.str s "reason" in
        let session = F.int s "session" in
        let send_id = F.int s "send_id" in
        Msg_drop { src; dst; reason; session; send_id }
    | 21 | 22 ->
        let idx = F.int s "idx" in
        let bytes = F.int s "bytes" in
        if tag = 21 then Snapshot_taken { idx; bytes }
        else Snapshot_installed { idx; bytes }
    | 23 ->
        let upto = F.int s "upto" in
        let entries = F.int s "entries" in
        Log_trimmed { upto; entries }
    | 24 ->
        let step = F.int s "step" in
        let fault = F.str s "fault" in
        Chaos_fault { step; fault }
    | 25 ->
        let client = F.int s "client" in
        let op_id = F.int s "op_id" in
        let op = F.str s "op" in
        Chaos_invoke { client; op_id; op }
    | 26 ->
        let client = F.int s "client" in
        let op_id = F.int s "op_id" in
        let result = F.str s "result" in
        Chaos_response { client; op_id; result }
    | 27 ->
        let client = F.int s "client" in
        let op_id = F.int s "op_id" in
        Chaos_timeout { client; op_id }
    | tag -> invalid_arg (Printf.sprintf "Tracebin.Read.kind: tag %d" tag)
end

module Bin_read = Read (struct
  type src = source

  let int s _ = read_svarint s
  let str s _ = read_interned s

  let ballot s _ =
    let n = read_svarint s in
    let prio = read_svarint s in
    let pid = read_svarint s in
    { Event.n; prio; pid }
end)

module J = Bench_report.Json

let decode_error fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

(* Int fields must be JSON integers: a float such as [2.7] or [1e300]
   has no faithful int, so it is an error rather than a truncation. *)
module Json_fields = struct
  type src = J.t

  let int j key =
    match J.member key j with
    | Some (J.Int i) -> i
    | Some _ -> decode_error "field %S is not an integer" key
    | None -> decode_error "missing int field %S" key

  let str j key =
    match J.member key j with
    | Some (J.String s) -> s
    | _ -> decode_error "missing string field %S" key

  let ballot j key =
    match J.member key j with
    | Some (J.Obj _ as b) ->
        let n = int b "n" in
        let prio = int b "prio" in
        let pid = int b "pid" in
        { Event.n; prio; pid }
    | _ -> decode_error "missing %s" key
end

module Json_read = Read (Json_fields)

let tag_of_name name =
  let rec go tag =
    if tag >= Event.num_kinds then decode_error "unknown kind %S" name
    else if String.equal (Event.tag_name tag) name then tag
    else go (tag + 1)
  in
  go 0

let of_json line =
  match J.of_string line with
  | Error _ as e -> e
  | Ok j -> (
      try
        let time =
          match J.member "t" j with
          | Some (J.Float f) -> f
          | Some (J.Int i) -> float_of_int i
          | _ -> decode_error "missing number field \"t\""
        in
        if not (us_in_range (round_us time)) then
          decode_error "\"t\" %g ms is not below 2^51 us" time;
        let node = Json_fields.int j "node" in
        let tag = tag_of_name (Json_fields.str j "kind") in
        Ok { Event.time; node; kind = Json_read.kind j tag }
      with Decode_error m -> Error m)

let read_bin_event s : Event.t =
  let tag = read_byte s in
  let dt = read_svarint s in
  s.last_us <- s.last_us + dt;
  if s.last_us >= max_abs_us || s.last_us <= -max_abs_us then
    fail s "offset %d: time not below 2^51 us";
  let time = us_to_time s.last_us in
  let node = read_svarint s in
  if tag >= Event.num_kinds then fail s "offset %d: unknown event tag %d" tag;
  { Event.time; node; kind = Bin_read.kind s tag }

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
            match of_json line with
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
              match of_json line with
              | Ok e -> Seq.Cons (Ok e, next)
              | Error msg ->
                  exhausted := true;
                  Seq.Cons (Error msg, next)))
  in
  next
