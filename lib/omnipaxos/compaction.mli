(** Log compaction, shared by all four protocols via [Rsm.Cluster.config]:
    the trigger policy, and the store that holds the applied state of the
    decided prefix.

    Every node applies each decided entry to its {!Store} once, when it is
    decided. When compaction is enabled, a node truncates the log below
    the trim watermark once the retained decided prefix reaches
    [snapshot_interval] entries; the store already holds the state below
    it. [retain] keeps that many of the newest decided entries in the log
    past the watermark, so slightly-lagging followers can still be caught
    up with plain log entries instead of a full snapshot transfer.

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
      (** trim the log every time this many decided-but-untrimmed entries
          accumulate; [0] disables compaction entirely *)
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

(** The applied state of one log's decided prefix.

    A store holds the KV state machine, the client-command count (commands
    with id >= 0) and the decided-id cache of exactly the applied prefix
    [\[0, applied)]. Each advance of a core's decided (commit) index runs
    {!apply}, the one loop over newly decided entries; a compaction then only
    cuts the log below the applied index ({!trim}), and a shipped snapshot
    ({!encode}) covers [\[0, applied)]. The store never rewinds: a core that
    re-announces a lower decided index (a recovering Raft node, a rebuilt
    Omni-Paxos replica) applies nothing twice, and {!install} refuses a
    snapshot of a prefix already applied. A core keeps the store in its
    durable state: a trim is only safe once the state below it survives a
    crash.

    Trace contract: {!trim} emits [snapshot_taken] (when [taken]) then
    [log_trimmed], after the trim; {!install} emits [snapshot_installed]
    after the state and the log changed. *)
module Store : sig
  type t

  val create : unit -> t

  val copy : t -> t
  (** A deep copy, the decided-id cache and the install record included. *)

  val client_cmds : t -> int
  val applied : t -> int

  val ids : t -> Decided_cache.t
  (** The ids of the client commands applied, in order. Ids replaced by an
      install are not in it: the cache goes on from where it was. *)

  type installed = {
    inst_seq : int;  (** counts installs on this store; strictly increasing *)
    inst_cache_len : int;
        (** the cache's count at the install: ids at or above this position
            were applied on top of the installed state *)
    inst_payload : string;  (** the {!Replog.Snapshot} envelope installed *)
  }

  val last_install : t -> installed option

  val key : t -> string * int * int
  (** The service state as data (the KV, the client count and [applied]):
      equal keys, equal states. The decided-id cache and the install record
      are observations, not state, and are left out. *)

  val encode : t -> idx:int -> string
  (** The snapshot envelope of the applied state, labelled as covering
      [\[0, idx)]. [idx] is [applied], or lower only when the entries
      [\[idx, applied)] carry no command: Sequence Paxos labels its
      snapshot at a decided stop-sign, so that the suffix shipped from
      [idx] carries the stop-sign, which the state machine does not
      hold. *)

  val no_command : Replog.Command.t
  (** What the [command] function of {!apply} returns for an entry that
      carries no client command (a stop-sign, a Raft configuration entry):
      nothing is applied for it. Compared physically. *)

  val apply :
    t ->
    'e Replog.Log.t ->
    upto:int ->
    ('a -> 'e -> Replog.Command.t) ->
    'a ->
    unit
  (** [apply s log ~upto command x] applies the entries [\[applied, upto)]
      of [log] in order: each [command x e] other than {!no_command} goes to
      the KV state machine and, when its id is >= 0, is counted and noted in
      the cache. Nothing happens when [upto <= applied]. Passing [x] rather
      than a partial application lets a core pass a static function, so an
      apply builds no closure; it allocates nothing but the cache's growth.

      One pass over the log's chunks ({!Replog.Log.chunk}), the first found
      from the tail: per entry, one call of [command] and, for a command
      that changes the KV, one of [Kv.apply]. No-ops and blobs are counted
      and applied at once per chunk, and each run of consecutive ids is
      noted in the cache once ({!Decided_cache.note_run}). *)

  val trim : t -> 'e Replog.Log.t -> node:int -> upto:int -> taken:bool -> unit
  (** Cut the log below [upto], which must not exceed [applied]; a no-op
      when [upto <= Log.first_idx log]. No entry is read. [taken] says
      whether the trace records [snapshot_taken] (of the state at
      [applied]) before [log_trimmed]: true when the node compacts on its
      own trigger, false when it follows a trim order. *)

  type received = private {
    idx : int;  (** the snapshot covers [\[0, idx)] *)
    envelope : string;  (** the bytes as received *)
    snapshot : Replog.Snapshot.t;
  }
  (** A received snapshot that decoded; only {!decode} makes one. *)

  val decode : idx:int -> string -> (received, string) result
  (** Decode an envelope shipped as covering [\[0, idx)]: [Error] when it
      is malformed or covers another prefix. Never raises. *)

  val install : t -> 'e Replog.Log.t -> node:int -> received -> bool
  (** Adopt the received state, jump [applied] to its [idx], record the
      install, restart the log at [idx], discarding every local entry, and
      return [true]. A snapshot at or below [applied] is stale, since
      installing it would roll the state back: it changes nothing and
      returns [false]. This is the one stale-install check of all three
      protocols. *)
end
