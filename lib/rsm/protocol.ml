(** The uniform interface the cluster driver and the experiments use to run
    any of the four replicated state machine protocols. *)

type install = {
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
    to the installed state. *)

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

(* The decided command ids in decided order, fed by [Adapter.Make] from the
   core's decide callback so queries are O(delta). Stored as runs of
   consecutive ids, two ints per run in [runs]: run [r] holds the ids
   [runs.(2r)], [runs.(2r) + 1], ... at the decided positions from
   [runs.(2r + 1)] up to the next run's first position (or [count]).
   Clients number their commands consecutively, so a cache of a million
   ids is a handful of runs; with no two ids consecutive it costs two
   ints per id. *)
module Decided_cache = struct
  type t = {
    mutable runs : int array;
    mutable n_runs : int;
    mutable count : int;
  }

  let create () = { runs = Array.make 16 0; n_runs = 0; count = 0 }

  let note t id =
    let last = 2 * (t.n_runs - 1) in
    if t.n_runs > 0 && id = t.runs.(last) + (t.count - t.runs.(last + 1)) then
      t.count <- t.count + 1
    else begin
      let r = 2 * t.n_runs in
      if r = Array.length t.runs then begin
        let bigger = Array.make (2 * r) 0 in
        Array.blit t.runs 0 bigger 0 r;
        t.runs <- bigger
      end;
      t.runs.(r) <- id;
      t.runs.(r + 1) <- t.count;
      t.n_runs <- t.n_runs + 1;
      t.count <- t.count + 1
    end

  let count t = t.count

  (* Walk down from the last position: every run holds at least one
     position, so the walk visits O(count - from) runs. *)
  let ids_from t ~from =
    let from = min t.count (max 0 from) in
    let rec collect r pos acc =
      if pos < from then acc
      else
        let first = t.runs.((2 * r) + 1) in
        if pos < first then collect (r - 1) pos acc
        else collect r (pos - 1) ((t.runs.(2 * r) + pos - first) :: acc)
    in
    collect (t.n_runs - 1) (t.count - 1) []
end
