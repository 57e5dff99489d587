(** Raft consensus (Ongaro & Ousterhout, 2014), used as the paper's main
    baseline. Implements leader election with randomized timeouts and the
    max-log vote restriction, log replication with [nextIndex] backtracking
    and pipelined batches, and the commit rule restricted to the current
    term.

    Two optional mechanisms reproduce the "Raft PV+CQ" configuration of the
    evaluation (the patch of Jensen et al. [24]):
    - [pre_vote]: candidates first run a PreVote round that does not disturb
      terms; a server only grants a pre-vote if its own election timer has
      expired (i.e. it no longer hears a leader).
    - [check_quorum]: a leader steps down if it has not heard from a
      majority within one election timeout.

    Reconfiguration follows the TiKV practice the paper benchmarks against:
    new servers join as learners, the leader alone streams them the full log,
    and once caught up a config-change entry switches the voter set.

    Driven by [tick]; the election timeout is drawn uniformly from
    [election_ticks, 2 * election_ticks] ticks, heartbeats are sent every
    [max 1 (election_ticks / 5)] ticks. *)

type entry_data =
  | Cmd of Replog.Command.t
  | Config of { config_id : int; voters : int list }

type entry = { term : int; data : entry_data }

type msg =
  | Request_vote of {
      term : int;
      last_log_idx : int;
      last_log_term : int;
      pre_vote : bool;
    }
  | Vote of { term : int; granted : bool; pre_vote : bool }
  | Append_entries of {
      term : int;
      prev_idx : int;  (** index before the first entry; -1 if none *)
      prev_term : int;
      entries : entry Replog.Log.slice;
          (** a view of the leader's log *)
      commit_idx : int;
    }
  | Append_resp of {
      term : int;
      success : bool;
      match_idx : int;  (** on failure: the follower's log length, as hint *)
    }
  | Install_snapshot of {
      term : int;
      idx : int;  (** the log restarts at [idx]; the payload covers [0, idx) *)
      snap_term : int;  (** term of entry [idx - 1], for AppendEntries checks *)
      payload : string;  (** a {!Replog.Snapshot} envelope *)
      commit_idx : int;
    }

type persistent = {
  mutable term : int;
  mutable voted_for : int option;
  log : entry Replog.Log.t;
  store : Omnipaxos.Compaction.Store.t;
      (** the applied state of the committed prefix; durable because a
          trim is only safe once the state below it survives a crash *)
  mutable snap_term : int;  (** term of the entry below the trim point *)
}

type role = Follower | Candidate | Leader

type t

val fresh_persistent : unit -> persistent

val create :
  id:int ->
  voters:int list ->
  ?pre_vote:bool ->
  ?check_quorum:bool ->
  ?batching:Omnipaxos.Batching.config ->
  ?compaction:Omnipaxos.Compaction.config ->
  election_ticks:int ->
  rand:Random.State.t ->
  persistent:persistent ->
  send:(dst:int -> msg -> unit) ->
  unit ->
  t
(** [voters] must include [id]. [batching] (default
    {!Omnipaxos.Batching.fixed}) sets the cap on entries per AppendEntries
    ([max_batch]); an adaptive config also flushes a proposal burst as soon
    as [min_batch] entries are pending for a peer, instead of on the next
    tick — the Raft mirror of Omni-Paxos' adaptive batching, keeping the
    throughput comparisons apples-to-apples.

    Every commit advance applies the newly committed entries to
    [persistent.store]. [compaction] (default
    {!Omnipaxos.Compaction.disabled}) enables local log compaction: once
    [snapshot_interval] committed entries accumulate above the trim point,
    the server trims the log below the commit index (except the last
    [retain] entries). A leader repairs followers whose next index fell
    below its trim point with [Install_snapshot] of its store. Note:
    [Config] entries are not carried by snapshots — do not combine
    compaction with reconfiguration.

    The node emits its own trace events: [Proposed] on an accepted
    proposal, [Decided] (the term as ballot) on every commit advance,
    [Snapshot_taken]/[Log_trimmed] on a local trim, [Snapshot_installed],
    and leader transitions once per [tick]. *)

val handle : t -> src:int -> msg -> unit
val tick : t -> unit
val session_reset : t -> peer:int -> unit
(** Leader only: rewind the pipeline of a replication target (voter or
    learner) to its last known match; any other peer is ignored, as is its
    [Append_resp]. *)

val recover : t -> unit

val propose : t -> Replog.Command.t -> bool

val add_learners : t -> int list -> unit
(** Leader only: start streaming the log to these servers (reconfiguration
    phase 1). *)

val learners_caught_up : t -> bool
val propose_config : t -> config_id:int -> voters:int list -> bool
(** Append the config-change entry (reconfiguration phase 2). *)

val committed_config : t -> (int * int list) option
(** The last committed [Config] entry, if any. *)

val is_leader : t -> bool
val leader_pid : t -> int option
val current_term : t -> int
val commit_idx : t -> int
val log_length : t -> int

val first_idx : t -> int
(** The log's trim point: entries below it live only in the store. *)

val store : t -> Omnipaxos.Compaction.Store.t
(** The applied state of the committed prefix (it can run ahead of
    {!commit_idx} after {!recover}). *)

val msg_size : msg -> int
