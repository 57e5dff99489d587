(* One adapter shape for every protocol core. A core exposes its native
   surface ({!CORE}); [Make (Core)] puts it behind {!Protocol.PROTOCOL} and
   owns everything the cluster harness needs from every protocol alike: the
   decided-id cache and its scan cursor, the snapshot-install bookkeeping,
   the profiler frames around [handle]/[tick], and the query forwards.
   The cores read the shared batching/compaction configs and emit their
   own trace events, so a core's adapter file only wires the node's
   functions to {!CORE} and states its restart semantics. *)

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
    on_decide:(int -> unit) ->
    on_install:(int -> string -> unit) ->
    unit ->
    t
  (** The core calls [on_decide idx] when its decided/commit index advances
      to [idx], and [on_install idx payload] when a leader-shipped snapshot
      replaces its log below [idx] (before the decided index moves over the
      installed state). *)

  val handle : t -> src:int -> msg -> unit
  val tick : t -> unit
  val session_reset : t -> peer:int -> unit
  val restart : t -> unit
  val propose : t -> Replog.Command.t -> bool
  val is_leader : t -> bool
  val leader_pid : t -> int option
  val decided_index : t -> int
  val msg_size : msg -> int

  val iter_decided : t -> from:int -> upto:int -> (int -> unit) -> unit
  (** Apply the function to the command id of every client command decided
      at log positions [\[from, upto)], in order; protocol-internal entries
      are skipped. Called with [from < upto <= decided_index]. *)
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
  type t = {
    core : Core.t;
    cache : Protocol.Decided_cache.t;
    mutable scanned : int;  (* log index up to which decided entries were read *)
    mutable install_seq : int;
    mutable last_install : Protocol.install option;
  }

  type msg = Core.msg

  let name = Core.name

  let make cfg ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send ()
      =
    let cache = Protocol.Decided_cache.create () in
    let note id = if id >= 0 then Protocol.Decided_cache.note cache id in
    let t_ref = ref None in
    (* The cursor never rewinds and only [\[scanned, upto)] is read: a
       recovering core re-announces lower decided indexes, and an install
       has already moved the cursor past the entries it replaced. *)
    let on_decide upto =
      match !t_ref with
      | Some t when upto > t.scanned ->
          Core.iter_decided t.core ~from:t.scanned ~upto note;
          t.scanned <- upto
      | Some _ | None -> ()
    in
    (* Entries below [idx] can no longer be read: jump the cursor and
       record the install for checkers (the cache length marks where decided
       ids resume on top of the installed state). *)
    let on_install idx payload =
      match !t_ref with
      | Some t ->
          t.scanned <- max t.scanned idx;
          t.install_seq <- t.install_seq + 1;
          t.last_install <-
            Some
              {
                Protocol.inst_seq = t.install_seq;
                inst_cache_len = Protocol.Decided_cache.count t.cache;
                inst_payload = payload;
              }
      | None -> ()
    in
    let core =
      Core.create cfg ?batching ?compaction ~id ~peers ~election_ticks ~rand
        ~send ~on_decide ~on_install ()
    in
    let t = { core; cache; scanned = 0; install_seq = 0; last_install = None } in
    t_ref := Some t;
    t

  let create = make Core.default
  let core t = t.core
  let handle_frame = Core.layer ^ "/handle"
  let tick_frame = Core.layer ^ "/tick"

  (* Profiler frames around the two dispatch entry points. The cold branch
     repeats the call instead of passing a closure to [wrap], so the
     profiler-off path allocates nothing (the overhead gate measures this). *)
  let handle t ~src msg =
    if Obs.Profile.on () then
      Obs.Profile.wrap handle_frame (fun () -> Core.handle t.core ~src msg)
    else Core.handle t.core ~src msg

  let tick t =
    if Obs.Profile.on () then
      Obs.Profile.wrap tick_frame (fun () -> Core.tick t.core)
    else Core.tick t.core

  let session_reset t ~peer = Core.session_reset t.core ~peer
  let restart t = Core.restart t.core
  let propose t cmd = Core.propose t.core cmd
  let is_leader t = Core.is_leader t.core
  let leader_pid t = Core.leader_pid t.core
  let decided_count t = Protocol.Decided_cache.count t.cache
  let decided_ids t ~from = Protocol.Decided_cache.ids_from t.cache ~from
  let decided_index t = Core.decided_index t.core
  let last_install t = t.last_install
  let msg_size = Core.msg_size
end
