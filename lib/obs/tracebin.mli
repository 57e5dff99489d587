(** The trace format: the one module that encodes and decodes
    {!Event.t}, as JSONL ({!to_json} / {!of_json}) or as the compact binary
    container (format v1, magic ["opxtrace1"]). Both formats go through one
    writer table and one reader table, which list every kind's fields once,
    in order, with their JSONL keys.

    A binary trace is the magic, a version, a list of header metadata
    pairs (run parameters and per-kind sampling rates, see the README
    "Trace format" schema v3 table), then one variable-length record per
    event: a kind tag byte, the time delta vs the previous event in
    integer microseconds (zigzag varint), the node, and the kind's fields
    as zigzag varints. Strings are interned on first occurrence, encoder
    and decoder growing their tables under the identical rule, so the
    table itself is never stored.

    Times round to integer microseconds — exactly the precision
    {!to_json} keeps (it prints milliseconds with [%.3f]), so a
    binary round trip and a JSONL round trip of the same event stream
    compare equal. That holds below 2^51 us (about 71 years) in magnitude,
    where a double in milliseconds still resolves one microsecond, so both
    formats accept only such times: {!to_json} and {!write} raise
    [Invalid_argument] for any other time (nan and infinities included),
    and the decoders report an error.

    Reading is format-agnostic: {!of_channel} / {!of_string} sniff the
    magic and fall back to JSONL, so every consumer (analyzer, converter,
    tests) accepts both formats from files, pipes and stdin (no seeking
    required). *)

type format = Jsonl | Bin

exception Decode_error of string
(** Raised on malformed binary input while constructing a source (the
    header is parsed eagerly) — event-level errors surface as [Error]
    results from {!iter} / {!fold} / {!events} instead. *)

(** {1 JSONL} *)

val to_json : Event.t -> string
(** One JSON object, no trailing newline: ["t"] (simulated ms, [%.3f]),
    ["node"], ["kind"], then the kind's fields. Raises [Invalid_argument]
    for a time not below 2^51 us in magnitude. *)

val of_json : string -> (Event.t, string) result
(** Parse one JSONL line back into an event (inverse of {!to_json}).
    Unknown kinds, missing fields, non-integer numbers in int fields and a
    ["t"] not below 2^51 us in magnitude are reported as [Error]; it never
    raises. *)

(** {1 Binary encoding} *)

type writer

val writer : ?meta:(string * string) list -> (string -> unit) -> writer
(** [writer out] starts a binary trace: the header (with [meta], default
    empty) is encoded immediately. Encoded bytes are handed to [out] in
    chunks; call {!flush} when done. The string table holds at most 65536
    strings; strings past the cap are written inline. *)

val write : writer -> Event.t -> unit
(** Raises [Invalid_argument], leaving the writer unchanged, for a time
    not below 2^51 us in magnitude. *)

val flush : writer -> unit
(** Hand any buffered bytes to the writer's sink. Safe to call repeatedly;
    must be called before the underlying channel is closed. *)

val written_events : writer -> int
val written_bytes : writer -> int
(** Total encoded size including the header. *)

(** {1 Decoding} *)

type source
(** A buffered reader over a byte stream, with the format sniffed from the
    first bytes. For a binary trace the header is parsed eagerly, so
    {!meta} is available before any event is read. *)

val of_channel : in_channel -> source
(** Works on any channel, including stdin: detection uses buffering, not
    seeking. *)

val of_string : string -> source

val source_format : source -> format
val meta : source -> (string * string) list
(** Header metadata; [[]] for JSONL traces (which have no header). *)

val iter : source -> (Event.t -> unit) -> (unit, string) result
(** Decode every remaining event in stream order, in constant memory.
    On a malformed input returns [Error msg] — for JSONL the message is
    prefixed with the 1-based line number, for binary with the byte
    offset. Events already consumed before the error stand. *)

val fold :
  source -> init:'a -> f:('a -> Event.t -> 'a) -> ('a, string) result

val events : source -> (Event.t, string) result Seq.t
(** The same stream as a sequence; consuming it advances the source. After
    an [Error] element the sequence ends. *)
