(** Sequence Paxos — the log replication protocol of Omni-Paxos (§4).

    Replicates a gap-free, strictly growing log satisfying the Sequence
    Consensus properties SC1 (validity), SC2 (uniform agreement) and SC3
    (integrity). Leadership comes from outside (BLE) through
    [handle_leader]; a newly-elected leader synchronises the most updated
    log among a majority in the Prepare phase and then pipelines batched
    entries in the Accept phase.

    The module is transport-agnostic; the caller delivers messages, leader
    events, session resets, and periodic [flush] calls (which emit the
    batched [Accept] messages). Persistent state lives in a caller-owned
    [persistent] record so that crash/recovery can be modelled faithfully:
    rebuild the node with [create] on the same record and call [recover]. *)

(** The payload of an [Accept]. Private: {!accept} builds every one, so
    [size] always matches the entries. *)
type accept = private {
  n : Ballot.t;
  start_idx : int;  (** log position of the first entry of the batch *)
  entries : Entry.t Replog.Log.slice;
      (** a view of the sender's log: one flush hands the same slice to
          every follower at the same position *)
  decided_idx : int;
  size : int;
      (** the message's {!msg_size}, [41] plus the entries' sizes: summed
          once per batch, not once per follower it is sent to *)
}

type msg =
  | Prepare of {
      n : Ballot.t;
      acc_rnd : Ballot.t;
      log_idx : int;
      decided_idx : int;
    }
  | Promise of {
      n : Ballot.t;
      acc_rnd : Ballot.t;
      log_idx : int;
      decided_idx : int;
      suffix_from : int;
      suffix : Entry.t Replog.Log.slice;
      snapshot : (int * string) option;
          (** a state snapshot covering entries [0, idx), sent when the
              preparing leader needs entries below this server's trim
              point (the suffix alone would leave a gap) *)
    }
  | Accept_sync of {
      n : Ballot.t;
      sync_idx : int;
      suffix : Entry.t Replog.Log.slice;
      decided_idx : int;
      snapshot : (int * string) option;
          (** a state snapshot covering entries [0, idx), sent to followers
              whose logs are below the leader's trim point *)
    }
  | Accept of accept
  | Accepted of { n : Ballot.t; log_idx : int }
  | Decide of { n : Ballot.t; decided_idx : int }
  | Trim of { n : Ballot.t; trim_idx : int }
      (** log compaction: discard the decided prefix below [trim_idx] *)
  | Prepare_req

val accept :
  n:Ballot.t ->
  start_idx:int ->
  entries:Entry.t Replog.Log.slice ->
  decided_idx:int ->
  msg
(** The [Accept] of [entries] at [start_idx], with its [size]. *)

type persistent = {
  log : Entry.t Replog.Log.t;
  mutable prom_rnd : Ballot.t;  (** highest round promised *)
  mutable acc_rnd : Ballot.t;  (** round of the last accepted entry *)
  mutable decided_idx : int;
  store : Compaction.Store.t;
      (** the applied state of [0, decided_idx): kept in the durable record
          because a trim is only safe once the state below it survives a
          crash *)
}

type role = Follower | Leader_prepare | Leader_accept

type t

val fresh_persistent : unit -> persistent

val create :
  id:int ->
  peers:int list ->
  persistent:persistent ->
  ?batching:Batching.config ->
  ?compaction:Compaction.config ->
  send:(dst:int -> msg -> unit) ->
  ?on_decide:(int -> unit) ->
  ?on_snapshot:(int -> string -> unit) ->
  unit ->
  t
(** [on_decide] fires with the new decided index every time it advances,
    after [persistent.store] applied the newly decided entries. [create]
    itself applies whatever part of [persistent.decided_idx] the store has
    not applied yet (storage preloaded by hand).
    [batching] selects the batch-flush policy (default {!Batching.fixed},
    the historical flush-on-every-tick behaviour; see [batching.mli]).
    [compaction] (default {!Compaction.disabled}) enables automatic
    snapshot-and-trim on the leader once [snapshot_interval] decided
    entries accumulate above the trim point. The leader sends its [Trim]
    after the [Decide] (or [AcceptSync]) that gives the followers the new
    decided index, so on FIFO links each synced follower trims where the
    leader did. A trim only cuts the log: the store already holds the
    state below it. The snapshot of [persistent.store], covering the
    decided prefix, repairs followers that fell below the trim point, and
    [on_snapshot idx payload] fires at the receiving side once it is
    installed. *)

val handle : t -> src:int -> msg -> unit
(** Messages from a pid outside [\[0, 1 + max (id :: peers))] — never a
    member of this configuration — are dropped. *)

val handle_leader : t -> Ballot.t -> unit
(** Leader event from BLE: if the ballot is ours and higher than anything
    promised, start the Prepare phase; otherwise step down to follower. *)

val propose : t -> Entry.t -> bool
(** Append a client command (or stop-sign). Returns [false] if this server
    is not the leader, or the configuration is stopped — the client must
    retry elsewhere. During the Prepare phase proposals are buffered. *)

val flush : t -> unit
(** The per-tick driver hook. On a leader, runs the batching policy's
    deadline path: emit one batched [Accept] per promised follower with the
    entries proposed since its previous batch (under the adaptive policy,
    bursts may already have been flushed early by the size trigger, and the
    per-Accept cap adapts to the backlog). On a follower, sweeps out a
    deferred coalesced [Accepted] acknowledgement. Call once per tick. *)

val request_trim : t -> upto:int -> bool
(** Leader-side log compaction: discard the decided prefix below [upto] on
    every server. Succeeds only if [upto] is decided and every peer has
    acknowledged accepting at least [upto] in the current round; the
    followers then trim on receipt. The automatic trigger of [compaction]
    (see {!create}) reaches the followers too; this is the explicit,
    all-peers variant. A follower ignores a [Trim] above its own decided
    index. *)

val recover : t -> unit
(** Fail-recovery (§4.1.3): enter the recover state and broadcast
    [Prepare_req]; the current leader answers with a [Prepare] that leads to
    log synchronisation. *)

val session_reset : t -> peer:int -> unit
(** Link session drop/re-establishment with [peer] (§4.1.3): a leader
    re-sends [Prepare] to that peer; a follower sends [Prepare_req]. A
    no-op for a pid outside the range [handle] accepts. *)

(** {1 Observers} *)

val id : t -> int
val role : t -> role
val is_leader : t -> bool
val current_round : t -> Ballot.t
val leader_pid : t -> int option
(** The pid of the round this server currently follows (or leads). *)

val decided_idx : t -> int
val log_length : t -> int
val read_decided : t -> from:int -> Entry.t list
(** Decided entries from [from] (clamped to the trim point). *)

val iter_decided : t -> from:int -> upto:int -> (Entry.t -> unit) -> unit
(** Apply the function, in log order, to the decided entries at positions
    [\[from, upto)], clamped to the trim point and the decided index. Reads
    the log in place: nothing is allocated. *)

val read_log : t -> Entry.t Replog.Log.t
val is_stopped : t -> bool
(** Whether a stop-sign has been appended/adopted (the configuration is
    being stopped). *)

val stop_sign : t -> Entry.stop_sign option
(** The stop-sign, once it is decided. *)

val first_idx : t -> int
(** The log's trim point: entries below it live only in the store. *)

val store : t -> Compaction.Store.t
(** The applied state of the decided prefix [0, decided_idx). *)

val snapshot : t -> string
(** The {!Replog.Snapshot} envelope of the state covering
    [0, decided_idx). Once a stop-sign is decided it is labelled with the
    stop-sign's index, which it covers as well, since the stop-sign applies
    nothing: a shipped snapshot's suffix then carries the stop-sign. *)

val batch_cap : t -> int
(** The current adaptive per-[Accept] entry cap (constant [max_batch] under
    the fixed policy). Exposed for tests and benchmark reports. *)

val msg_size : msg -> int
(** Serialised size estimate in bytes, for IO accounting. *)

(** {1 Model-checker support} Off the protocol's path: [lib/mcheck]
    explores worlds of real instances, copying the ones a step touches. *)

val copy : t -> t
(** A deep copy, with a fresh [persistent] record; the callbacks are shared. *)

val state_key : t -> string
(** Every field but the callbacks, canonically encoded: instances with
    equal keys behave identically on every input. *)

val msg_key : msg -> string
(** The message, canonically encoded: equal messages give equal keys. *)
