(** The uniform interface the cluster driver and the experiments use to run
    any of the four replicated state machine protocols. *)

type install = Omnipaxos.Compaction.Store.installed = {
  inst_seq : int;  (** counts installs on this server; strictly increasing *)
  inst_cache_len : int;
      (** [decided_count] at the moment of the install: decided ids at or
          above this position were decided after (and on top of) the
          installed state *)
  inst_payload : string;  (** the {!Replog.Snapshot} envelope installed *)
}
(** A snapshot install observed on a server: the leader replaced this
    server's state below the trim point with serialised state instead of
    replaying log entries. Checkers use it to jump their per-server oracle
    to the installed state. The server's store records it
    ({!Omnipaxos.Compaction.Store.last_install}). *)

module type PROTOCOL = sig
  type t
  type msg

  val name : string

  val create :
    ?batching:Omnipaxos.Batching.config ->
    ?compaction:Omnipaxos.Compaction.config ->
    id:int ->
    peers:int list ->
    election_ticks:int ->
    rand:Random.State.t ->
    send:(dst:int -> msg -> unit) ->
    unit ->
    t
  (** [election_ticks] is the election timeout expressed in driver ticks;
      protocols derive their internal timers (heartbeat cadence, randomized
      timeouts, view-change timers) from it.

      [batching] (default {!Omnipaxos.Batching.fixed}) selects the hot-path
      flush policy and [compaction] (default
      {!Omnipaxos.Compaction.disabled}) the snapshot-and-trim trigger. Every
      core reads the same two configs, so Figure 7/8 comparisons stay
      apples-to-apples: Omni-Paxos variants and VR apply them to Sequence
      Paxos (quorum-watermark compaction); Raft and Multi-Paxos cap their
      replication batches at [max_batch], flush eagerly at [min_batch]
      pending entries under an adaptive config, and compact locally below
      their own commit/decide watermark, repairing stragglers with their own
      snapshot messages. *)

  val handle : t -> src:int -> msg -> unit
  val tick : t -> unit
  val session_reset : t -> peer:int -> unit

  val restart : t -> unit
  (** Fail-recovery restart after a [Simnet.Net.crash]/[recover] cycle:
      rebuild volatile state from whatever the protocol persists to stable
      storage. Omni-Paxos rebuilds its replica on the retained storage and
      runs the paper's recovery protocol; Raft re-runs recovery on its
      persistent term/vote/log; Multi-Paxos and VR have no storage
      abstraction and model synchronous full-state persistence (the
      instance is kept as-is — a pause, not an amnesia restart). *)

  val propose : t -> Replog.Command.t -> bool
  (** Returns false if this server cannot accept proposals (not the
      leader). *)

  val is_leader : t -> bool
  val leader_pid : t -> int option

  val decided_count : t -> int
  (** Number of client commands decided so far (protocol-internal entries
      excluded). *)

  val decided_ids : t -> from:int -> int list
  (** Ids of the decided client commands, starting from decided position
      [from]. *)

  val decided_index : t -> int
  (** The protocol-level decided/commit log index (absolute, so it keeps
      counting across compaction). Unlike {!decided_count} it includes
      protocol-internal entries and survives a snapshot install without a
      gap, which makes it the right "caught up yet?" probe for benches. *)

  val last_install : t -> install option
  (** The most recent snapshot install on this server, if any (compaction
      must be enabled for installs to happen). *)

  val msg_size : msg -> int
end
