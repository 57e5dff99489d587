(** The uniform interface the cluster driver and the experiments use to run
    any of the four replicated state machine protocols. Each
    [lib/rsm/*_adapter.ml] is one {!PROTOCOL} module over its core, built
    from the helpers at the end of this file. *)

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

(* The helpers every adapter builds its [PROTOCOL] from. *)

(* The queries read the core's store, which applies every decided entry
   once and keeps the decided-id cache and the install record. *)
let decided_count store =
  Omnipaxos.Decided_cache.count (Omnipaxos.Compaction.Store.ids store)

let decided_ids store ~from =
  Omnipaxos.Decided_cache.ids_from (Omnipaxos.Compaction.Store.ids store) ~from

let last_install = Omnipaxos.Compaction.Store.last_install

(* [framed ~layer handle tick] is [handle] and [tick] inside the profiler
   frames ["<layer>/handle"] and ["<layer>/tick"], whose labels are built
   once. The cold branch repeats the call instead of passing a closure to
   [wrap], so the profiler-off path allocates nothing (the overhead gate
   measures this). *)
let framed ~layer handle tick =
  let handle_frame = layer ^ "/handle" and tick_frame = layer ^ "/tick" in
  ( (fun t ~src msg ->
      if Obs.Profile.on () then
        Obs.Profile.wrap handle_frame (fun () -> handle t ~src msg)
      else handle t ~src msg),
    fun t ->
      if Obs.Profile.on () then Obs.Profile.wrap tick_frame (fun () -> tick t)
      else tick t )
