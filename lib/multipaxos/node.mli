(** Multi-Paxos baseline (in the style of "Paxos made moderately complex"
    [37] / frankenpaxos, which the paper benchmarks against).

    Entries are decided in independent slots; the client-visible log is the
    contiguous prefix of decided slots. Leadership is implicit: a server
    whose failure detector suspects the current *active* leader bumps its
    ballot above everything seen and runs Phase 1 (a scout); on a majority
    of promises it becomes active and replicates with Phase 2, filling slot
    gaps with internal no-ops.

    The failure-detector semantics reproduce the behaviours analysed in §2
    of the paper:
    - the FD monitors node-liveness of the last *active* leader, so in the
      quorum-loss scenario the hub keeps hearing the stale leader's
      heartbeats and never takes over (deadlock);
    - a preempted proposer learns the preemptor's identity, monitors it, and
      retries with a higher ballot when it appears dead — the gossip loop
      behind the chained-scenario livelock;
    - candidacy requires no log or EQC precondition, so the constrained
      election scenario recovers. *)

type ballot = { n : int; pid : int }

type msg =
  | Heartbeat  (** node-liveness heartbeat (not ballot-stamped) *)
  | P1a of { b : ballot; from_slot : int }
  | P1b of {
      b : ballot;
      accepted : (int * ballot * Replog.Command.t) list;
          (** accepted slots at or above the scout's [from_slot] *)
    }
  | P2a of {
      b : ballot;
      start_slot : int;
      cmds : Replog.Command.t list;  (** empty = leader activity signal *)
    }
  | P2b of { b : ballot; start_slot : int; count : int }
  | Preempted of { b : ballot }
  | Decided_watermark of { b : ballot; upto : int }
      (** learners promote matching accepted slots to decided *)
  | Decision of { start_slot : int; cmds : Replog.Command.t list }
  | Decision_req of { from : int }
  | Snapshot of { idx : int; payload : string }
      (** a {!Replog.Snapshot} envelope covering slots [0, idx), sent to
          servers that ask for slots below the sender's trim point *)

type state = Passive | Scouting | Active

type t

val create :
  id:int ->
  peers:int list ->
  election_ticks:int ->
  rand:Random.State.t ->
  ?batching:Omnipaxos.Batching.config ->
  ?compaction:Omnipaxos.Compaction.config ->
  send:(dst:int -> msg -> unit) ->
  unit ->
  t
(** [batching] (default {!Omnipaxos.Batching.fixed}) caps commands per P2a
    at [max_batch]; an adaptive config also flushes pending proposals as
    soon as [min_batch] slots are queued instead of waiting for the next
    tick — the Multi-Paxos mirror of Omni-Paxos' adaptive batching.

    Every decided-prefix advance applies the new slots to the node's
    store. [compaction] (default {!Omnipaxos.Compaction.disabled}) enables
    local log compaction: once [snapshot_interval] decided slots accumulate
    above the trim point, the server trims the decided log (except the last
    [retain] slots). Requests for discarded slots (catch-up, scouts below
    the trim point) are answered with a [Snapshot] of the store instead.

    The node emits its own trace events: [Proposed] on an accepted
    proposal, [Decided] (the ballot round as term) on every decided-prefix
    advance, [Snapshot_taken]/[Log_trimmed] on a local trim,
    [Snapshot_installed], and leader transitions once per [tick]. *)

val handle : t -> src:int -> msg -> unit
val tick : t -> unit
val session_reset : t -> peer:int -> unit
val propose : t -> Replog.Command.t -> bool
val state : t -> state
val is_leader : t -> bool
val leader_pid : t -> int option
val current_ballot : t -> ballot
val decided_log : t -> Replog.Command.t Replog.Log.t
(** The contiguous decided prefix (includes internal no-op gap fillers,
    which have negative ids). *)

val decided_length : t -> int

val first_idx : t -> int
(** The decided log's trim point: slots below it live only in the store. *)

val store : t -> Omnipaxos.Compaction.Store.t
(** The applied state of the whole decided prefix. *)

val msg_size : msg -> int
