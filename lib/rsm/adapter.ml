(* One adapter shape for every protocol core. A core exposes its native
   surface ({!CORE}); [Make (Core)] puts it behind {!Protocol.PROTOCOL}: the
   profiler frames around [handle]/[tick], and the queries, which read the
   core's store. The store ({!Omnipaxos.Compaction.Store}) applies every
   decided entry once and keeps the decided-id cache and the install record
   itself, so the adapter holds no state of its own. The cores read the
   shared batching/compaction configs and emit their own trace events, so a
   core's adapter file only wires the node's functions to {!CORE} and states
   its restart semantics. *)

module type CORE = sig
  type t
  type msg

  type config
  (** Create-time variant knobs (e.g. Raft's PreVote + CheckQuorum). *)

  val name : string

  val layer : string
  (** Profiler frame prefix: frames are ["<layer>/handle"] and
      ["<layer>/tick"]. *)

  val default : config

  val create :
    config ->
    ?batching:Omnipaxos.Batching.config ->
    ?compaction:Omnipaxos.Compaction.config ->
    id:int ->
    peers:int list ->
    election_ticks:int ->
    rand:Random.State.t ->
    send:(dst:int -> msg -> unit) ->
    unit ->
    t

  val handle : t -> src:int -> msg -> unit
  val tick : t -> unit
  val session_reset : t -> peer:int -> unit
  val restart : t -> unit
  val propose : t -> Replog.Command.t -> bool
  val is_leader : t -> bool
  val leader_pid : t -> int option
  val decided_index : t -> int
  val msg_size : msg -> int

  val store : t -> Omnipaxos.Compaction.Store.t
  (** The applied state of the decided prefix, which the core brings up to
      its decided index on every advance. *)
end

module Make (Core : CORE) : sig
  include Protocol.PROTOCOL with type msg = Core.msg

  val make :
    Core.config ->
    ?batching:Omnipaxos.Batching.config ->
    ?compaction:Omnipaxos.Compaction.config ->
    id:int ->
    peers:int list ->
    election_ticks:int ->
    rand:Random.State.t ->
    send:(dst:int -> msg -> unit) ->
    unit ->
    t
  (** [create] with an explicit variant config. *)

  val core : t -> Core.t
end = struct
  type t = Core.t
  type msg = Core.msg

  let name = Core.name

  let make = Core.create
  let create = make Core.default
  let core t = t
  let handle_frame = Core.layer ^ "/handle"
  let tick_frame = Core.layer ^ "/tick"

  (* Profiler frames around the two dispatch entry points. The cold branch
     repeats the call instead of passing a closure to [wrap], so the
     profiler-off path allocates nothing (the overhead gate measures this). *)
  let handle t ~src msg =
    if Obs.Profile.on () then
      Obs.Profile.wrap handle_frame (fun () -> Core.handle t ~src msg)
    else Core.handle t ~src msg

  let tick t =
    if Obs.Profile.on () then Obs.Profile.wrap tick_frame (fun () -> Core.tick t)
    else Core.tick t

  let session_reset = Core.session_reset
  let restart = Core.restart
  let propose = Core.propose
  let is_leader = Core.is_leader
  let leader_pid = Core.leader_pid
  let ids t = Omnipaxos.Compaction.Store.ids (Core.store t)
  let decided_count t = Omnipaxos.Decided_cache.count (ids t)
  let decided_ids t ~from = Omnipaxos.Decided_cache.ids_from (ids t) ~from
  let decided_index = Core.decided_index
  let last_install t = Omnipaxos.Compaction.Store.last_install (Core.store t)
  let msg_size = Core.msg_size
end
