(** Versioned, deterministic state-machine snapshot envelope.

    A snapshot captures the [Kv] state produced by applying the decided
    log prefix [0, last_idx). The encoding is byte-stable: equal states
    encode to equal bytes regardless of the history that produced them
    (the KV payload is key-sorted, see {!Kv.snapshot}), so snapshots can
    be golden-tested and compared across nodes.

    Wire format (version 1):

    {v opxsnap1;<last_idx>;<client_cmds>;<fnv1a-hex8>;<kv-payload> v}

    [client_cmds] is the number of client commands (id >= 0) contained in
    the covered prefix — internal noops excluded — so a receiver can
    translate the snapshot boundary into its client-visible command
    stream (the campaign oracle and [Rsm.Reconfig] joiners need this). *)

type t = {
  last_idx : int;  (** snapshot covers log indexes [0, last_idx) *)
  client_cmds : int;  (** client commands (id >= 0) in the covered prefix *)
  payload : string;  (** {!Kv.snapshot} bytes *)
}

val encode : last_idx:int -> client_cmds:int -> Kv.t -> string
(** Serialise the state of [kv] as a version-1 snapshot. Deterministic. *)

val encode_payload :
  last_idx:int -> client_cmds:int -> payload:string -> string
(** Like {!encode} for an already-serialised {!Kv.snapshot} payload. *)

val decode : string -> (t, string) result
(** Parse and verify: magic, non-negative header counts, checksum, and a KV
    payload that {!restore} can read. Never raises, and {!restore} never
    raises on a value it returns. *)

val decode_exn : string -> t
(** Raises [Invalid_argument] on a malformed snapshot. *)

val restore : t -> Kv.t
(** Rebuild the KV state machine from the snapshot payload. *)

val checksum : string -> int
(** The 32-bit FNV-1a checksum used in the envelope (exposed for tests). *)
