(** Log compaction, shared by all four protocols via [Rsm.Cluster.config]:
    the trigger policy, and the store that holds the compacted prefix.

    When enabled, a node snapshots its state machine and truncates the log
    below the snapshot watermark once the retained decided prefix reaches
    [snapshot_interval] entries. [retain] keeps that many of the newest
    decided entries in the log past the watermark, so slightly-lagging
    followers can still be caught up with plain log entries instead of a
    full snapshot transfer.

    In Omni-Paxos the trigger runs on the leader against a quorum-confirmed
    acceptance watermark and propagates to followers with the [Trim]
    message, sent after the [Decide] that lets each follower apply it;
    Raft and Multi-Paxos compact locally below their own
    commit/decide watermark (the classic local decision); VR inherits the
    Sequence Paxos behaviour. A follower that was trimmed past (crash,
    partition) is repaired with a snapshot install instead of log entries —
    see DESIGN.md section 12. *)

type config = {
  snapshot_interval : int;
      (** take a snapshot every time this many decided-but-untrimmed
          entries accumulate; [0] disables compaction entirely *)
  retain : int;  (** decided entries to keep in the log below the frontier *)
}

val disabled : config
(** [{snapshot_interval = 0; retain = 0}] — never compacts (the default
    everywhere, so workloads that never opt in are byte-identical). *)

val enabled : config -> bool

val make : ?retain:int -> int -> config
(** [make ?retain snapshot_interval], validated. *)

val validated : config -> config
(** Raises [Invalid_argument] on negative fields. *)

val trim_point : config -> floor:int -> decided:int -> int
(** The interval trigger, for a log trimmed at [floor] and decided up to
    [decided]: [decided - retain] once compaction is enabled and
    [decided - floor >= snapshot_interval], otherwise [floor]. A result
    [<= floor] means there is nothing to compact. *)

(** The compacted prefix of one log.

    A store holds the KV state machine and the client-command count
    (commands with id >= 0) of exactly the trimmed prefix
    [\[0, Log.first_idx log)] of the log it is used with. It is the only
    code that folds entries into that state, trims the log, encodes the
    {!Replog.Snapshot} envelope, and installs a received one, so the
    invariant holds wherever the trim point moves. A core keeps it in its
    durable state: a trim is only safe once the snapshot below it survives
    a crash.

    Trace contract: [compact] emits [snapshot_taken] (when [taken]) then
    [log_trimmed], after the trim; {!install} emits [snapshot_installed]
    after the state and the log changed. *)
module Store : sig
  type t

  val create : unit -> t
  val copy : t -> t
  val client_cmds : t -> int

  val key : t -> string * int
  (** The store's state as data: equal keys, equal stores. *)

  val encode : t -> 'e Replog.Log.t -> string
  (** The snapshot envelope covering [\[0, Log.first_idx log)]. *)

  module type ENTRY = sig
    type t

    val iter_command : ('a -> Replog.Command.t -> unit) -> 'a -> t -> unit
    (** [iter_command f x e] applies [f x] to the client command [e]
        carries, if any. Passing [x] rather than a partial application
        lets {!Fold.compact} fold with a static function, so a compaction
        builds no closure. *)
  end

  module Fold (E : ENTRY) : sig
    val compact :
      t -> E.t Replog.Log.t -> node:int -> upto:int -> taken:bool -> unit
    (** Fold the entries [\[first_idx, upto)] into the state in place, then
        trim the log at [upto]; a no-op when [upto <= Log.first_idx log].
        [taken] says whether the trace records [snapshot_taken] before
        [log_trimmed]: true when the node compacts on its own trigger,
        false when it follows a trim order. The fold allocates nothing,
        neither per entry nor per call; only {!Replog.Log.trim}'s fresh
        array (and the trace events, when tracing) allocate. *)
  end

  type received = private {
    idx : int;  (** the snapshot covers [\[0, idx)] *)
    envelope : string;  (** the bytes as received *)
    snapshot : Replog.Snapshot.t;
  }
  (** A received snapshot that decoded; only {!decode} makes one. *)

  val decode : idx:int -> string -> (received, string) result
  (** Decode an envelope shipped as covering [\[0, idx)]: [Error] when it
      is malformed or covers another prefix. Never raises. *)

  val install : t -> 'e Replog.Log.t -> node:int -> received -> unit
  (** Adopt the received state and restart the log at its [idx],
      discarding every local entry. Stale-install guards are the caller's:
      each protocol knows which prefix its application has already seen. *)
end
