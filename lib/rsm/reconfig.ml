(** Reconfiguration runners for the Figure 9 experiments.

    [Omni] implements the paper's service layer (§6): the current
    configuration is stopped with a stop-sign; continuing servers start the
    next configuration immediately and newly added servers fetch the log in
    parallel, in segments, from the continuing servers; each new server
    starts its BLE + Sequence Paxos instances only once the complete log has
    been fetched.

    [Raft] implements the leader-driven scheme the paper compares against:
    new servers join as learners streamed by the leader alone; a config
    entry switches the voter set when it commits, so with a majority
    replaced, commits stall until the new servers catch up.

    Both build only their servers and run on one driver, [drive]; the
    numbers Figure 9 reports are read off the result at the end. *)

module Net = Simnet.Net
module Log = Replog.Log
module Command = Replog.Command
module Store = Omnipaxos.Compaction.Store

type fault = Cut_link of int * int | Crash_node of int

type params = {
  net_cfg : Cluster.config;  (** [n] must cover old and new node ids *)
  old_nodes : int list;
  new_nodes : int list;
  preload : int;  (** entries in the initial log (internal ids) *)
  cp : int;
  reconfigure_at : float;
  total_ms : float;
  segment_entries : int;
  faults : (float * fault) list;
      (** scheduled faults, for the §6.1 resilience experiments *)
}

type result = {
  series : Metrics.Series.t;
  io_series : (float * int array) list;
      (** (time, cumulative egress bytes per node), sampled every second *)
  reconfig_committed_at : float option;
  migration_done_at : float option;
  leader_changes : int;
  decided : int;
}

let internal_id = -2

(* Reconfiguration milestones traced at the harness level (node [-1] marks
   cluster-wide milestones observed by the runner rather than a server). *)
let trace_milestone ~node ~config_id milestone =
  if Obs.Trace.on () then
    Obs.Trace.emit ~node (Obs.Event.Reconfig { config_id; milestone })

(* What a runner hands the driver: its servers' per-tick work, the
   client's view of them, the reconfiguration trigger and the two
   milestones the result reports. *)
type runner = {
  tick : unit -> unit;
  decided : unit -> int;
  leader : unit -> int option;
  propose : int -> Command.t -> bool;  (** one command at a server *)
  reconfigure : unit -> unit;
  committed_at : unit -> float option;
  done_at : unit -> float option;
}

(* The harness both runners share, scheduled in this order: the net, the
   tick loop, the faults, the per-second egress sampler, the closed-loop
   client and the reconfiguration trigger. [setup] builds the runner's
   servers on the net. *)
let drive (p : params) setup =
  let c = p.net_cfg in
  let net =
    Net.create ~seed:c.seed ~latency:c.latency_ms ~egress_bw:c.egress_bw
      ~num_nodes:c.n ()
  in
  let r = setup net ~election_ticks:(Cluster.election_ticks c) in
  let rec tick_loop () =
    Net.schedule net ~delay:c.tick_ms (fun () ->
        r.tick ();
        tick_loop ())
  in
  tick_loop ();
  List.iter
    (fun (at, fault) ->
      Net.schedule net ~delay:at (fun () ->
          match fault with
          | Cut_link (a, b) -> Net.set_link net a b false
          | Crash_node i -> Net.crash net i))
    p.faults;
  let io_samples = ref [] in
  let rec sample () =
    Net.schedule net ~delay:1000.0 (fun () ->
        let snapshot = Array.init c.n (fun i -> Net.bytes_sent net i) in
        io_samples := (Net.now net, snapshot) :: !io_samples;
        sample ())
  in
  sample ();
  let propose_batch ~leader ~first_id ~count =
    let got = ref 0 in
    (try
       for i = first_id to first_id + count - 1 do
         if r.propose leader (Command.noop i) then incr got else raise Exit
       done
     with Exit -> ());
    !got
  in
  let client =
    Client.start ~retry_ms:(4.0 *. c.election_timeout_ms) ~poll_ms:c.tick_ms
      ~cp:p.cp
      {
        Client.now = (fun () -> Net.now net);
        decided = r.decided;
        leader = r.leader;
        propose_batch;
        schedule = (fun ~delay f -> Net.schedule net ~delay f);
      }
  in
  Net.schedule net ~delay:p.reconfigure_at r.reconfigure;
  Net.run_until net p.total_ms;
  Client.stop client;
  {
    series = Client.series client;
    io_series = List.rev !io_samples;
    reconfig_committed_at = r.committed_at ();
    migration_done_at = r.done_at ();
    leader_changes = Client.leader_changes client;
    decided = Client.decided client;
  }

module Omni = struct
  module R = Omnipaxos.Replica

  type wire =
    | Rep of { cfg : int; m : R.msg }
    | New_config of { cfg : int; nodes : int list; total : int }
    | Seg_req of { cfg : int; seg : int; from_idx : int; upto : int }
    | Seg_resp of { cfg : int; seg : int; from_idx : int; entries : Omnipaxos.Entry.t list }
    | Snap_req of { cfg : int }
    | Snap_resp of { cfg : int; idx : int; cmds : int; payload : string }
        (** snapshot of the decided prefix [0, idx) with [cmds] client
            commands below it; replaces entry-by-entry migration of the
            compacted base *)

  let wire_size = function
    | Rep { m; _ } -> 9 + R.msg_size m
    | New_config { nodes; _ } -> 25 + (8 * List.length nodes)
    | Seg_req _ -> 33
    | Seg_resp { entries; _ } ->
        33 + List.fold_left (fun a e -> a + Omnipaxos.Entry.size e) 0 entries
    | Snap_req _ -> 17
    | Snap_resp { payload; _ } -> 33 + String.length payload

  type migration = {
    total : int;
    donors : int array;
    seg_size : int;
    mutable received : int array;  (** entries received per segment *)
    mutable attempts : int array;
        (** re-request count per segment, for donor rotation *)
    mutable tail_cmds : int;
        (** client commands in the tail entries received so far *)
    mutable remaining_segments : int;
    mutable snap_pending : bool;
        (** waiting for the base snapshot before striping the tail *)
    mutable snap_attempts : int;  (** snapshot re-requests, for rotation *)
    mutable snap_cmds : int;  (** client commands covered by the snapshot *)
    mutable tail_from : int;  (** striped tail covers [tail_from, total) *)
  }

  (* Config ids are 0 (the old configuration) and 1 (the new one), so
     every per-config field is a two-slot array indexed by config id. *)
  type server = {
    id : int;
    replicas : R.t option array;  (** the replica run per config *)
    mutable transitioned : bool;
    mutable migration : migration option;
    mutable base_cmds : int;  (** commands in the migrated base (new servers) *)
  }

  type t = {
    p : params;
    net : wire Net.t;
    servers : server array;
    continuing : int list;
    election_ticks : int;
    mutable ticks : int;
    mutable ss_requested : bool;
    mutable reconfig_committed_at : float option;
    mutable migration_done_at : float option;
  }

  let replica_cmds = function Some r -> Store.client_cmds (R.store r) | None -> 0

  let server_cmds s =
    s.base_cmds + replica_cmds s.replicas.(0) + replica_cmds s.replicas.(1)

  let decided_total t =
    Array.fold_left
      (fun acc s ->
        if List.mem s.id t.p.old_nodes || List.mem s.id t.p.new_nodes then
          max acc (server_cmds s)
        else acc)
      0 t.servers

  (* The newest configuration this server runs a replica of (0 if none). *)
  let newest s = if Option.is_some s.replicas.(1) then 1 else 0

  (* Newest first, like the order the replicas were started in. *)
  let iter_replicas f s =
    Option.iter f s.replicas.(1);
    Option.iter f s.replicas.(0)

  let send_wire t src dst m = Net.send t.net ~src ~dst ~size:(wire_size m) m

  (* The new configuration is fully up when every member runs its replica
     (a pure upgrade has no joining servers, so this can already hold right
     after the transition). *)
  let check_all_running t ~cfg =
    if
      Option.is_none t.migration_done_at
      && List.for_all
           (fun j -> Option.is_some t.servers.(j).replicas.(cfg))
           t.p.new_nodes
    then begin
      t.migration_done_at <- Some (Net.now t.net);
      trace_milestone ~node:(-1) ~config_id:cfg "migration-done"
    end

  (* Start the replica of configuration [cfg] at server [s]. *)
  let rec start_replica t s ~cfg ~nodes ~storage =
    let peers = List.filter (fun j -> j <> s.id) nodes in
    let on_decide _ =
      on_replica_decide t s ~cfg (Option.get s.replicas.(cfg))
    in
    let r =
      R.create ~id:s.id ~peers ~hb_ticks:t.election_ticks
        ~batching:t.p.net_cfg.Cluster.batching
        ~compaction:t.p.net_cfg.Cluster.compaction ~storage
        ~send:(fun ~dst m -> send_wire t s.id dst (Rep { cfg; m }))
        ~on_decide ()
    in
    s.replicas.(cfg) <- Some r

  (* Drive the service-layer transition when the stop-sign is decided. *)
  and on_replica_decide t s ~cfg r =
    if (not s.transitioned) && cfg = 0 && Option.is_some (R.stop_sign r) then
      transition t s r

  and transition t s r0 =
    s.transitioned <- true;
    if Option.is_none t.reconfig_committed_at then begin
      t.reconfig_committed_at <- Some (Net.now t.net);
      trace_milestone ~node:s.id ~config_id:1 "stop-sign-decided"
    end;
    let ss = Option.get (R.stop_sign r0) in
    let total = R.decided_idx r0 - 1 in
    (* Entries [0, total) precede the stop-sign. *)
    if List.mem s.id ss.Omnipaxos.Entry.nodes then
      start_replica t s ~cfg:(ss.Omnipaxos.Entry.config_id)
        ~nodes:ss.Omnipaxos.Entry.nodes
        ~storage:(R.Storage.create ());
    (* Notify the servers that were not part of the old configuration. *)
    List.iter
      (fun j ->
        if not (List.mem j t.p.old_nodes) then
          send_wire t s.id j
            (New_config
               { cfg = ss.Omnipaxos.Entry.config_id; nodes = ss.Omnipaxos.Entry.nodes; total }))
      ss.Omnipaxos.Entry.nodes;
    check_all_running t ~cfg:ss.Omnipaxos.Entry.config_id

  let seg_bounds m k =
    let from_idx = m.tail_from + (k * m.seg_size) in
    (from_idx, min m.total (from_idx + m.seg_size))

  let finish_migration t s ~cfg ~nodes m =
    s.base_cmds <- m.snap_cmds + m.tail_cmds;
    s.migration <- None;
    start_replica t s ~cfg ~nodes ~storage:(R.Storage.create ());
    check_all_running t ~cfg

  (* Stripe the decided tail [from, total) across the donors; the prefix
     below [from] is covered by an already-received snapshot (or empty when
     compaction is off and [from = 0]). *)
  let start_tail t s ~cfg m ~from =
    m.tail_from <- from;
    let span = max 0 (m.total - from) in
    let nsegs = (span + m.seg_size - 1) / m.seg_size in
    m.received <- Array.make nsegs 0;
    m.attempts <- Array.make nsegs 0;
    m.tail_cmds <- 0;
    m.remaining_segments <- nsegs;
    if nsegs = 0 then finish_migration t s ~cfg ~nodes:t.p.new_nodes m
    else
      for k = 0 to nsegs - 1 do
        let from_idx, upto = seg_bounds m k in
        let donor = m.donors.(k mod Array.length m.donors) in
        send_wire t s.id donor (Seg_req { cfg; seg = k; from_idx; upto })
      done

  (* Parallel log migration. With compaction off the whole decided prefix
     [0, total) is striped entry-by-entry across the continuing servers;
     with compaction on the donors may have trimmed it, so the joiner first
     fetches a state snapshot (O(state) bytes) and stripes only the tail
     above it. *)
  let start_migration t s ~cfg ~total =
    let m =
      {
        total;
        donors = Array.of_list t.continuing;
        seg_size = t.p.segment_entries;
        received = [||];
        attempts = [||];
        tail_cmds = 0;
        remaining_segments = 0;
        snap_pending = false;
        snap_attempts = 0;
        snap_cmds = 0;
        tail_from = 0;
      }
    in
    s.migration <- Some m;
    trace_milestone ~node:s.id ~config_id:cfg "migration-start";
    if Omnipaxos.Compaction.enabled t.p.net_cfg.Cluster.compaction then begin
      m.snap_pending <- true;
      send_wire t s.id m.donors.(0) (Snap_req { cfg })
    end
    else start_tail t s ~cfg m ~from:0

  (* Re-request incomplete segments (or the base snapshot), rotating to a
     different donor on each attempt — an unreachable or crashed donor must
     not stall the migration (the §6.1 resilience property). *)
  let request_missing t s ~cfg =
    match s.migration with
    | None -> ()
    | Some m when m.snap_pending ->
        m.snap_attempts <- m.snap_attempts + 1;
        let donor = m.donors.(m.snap_attempts mod Array.length m.donors) in
        send_wire t s.id donor (Snap_req { cfg })
    | Some m ->
        Array.iteri
          (fun k got ->
            let from_idx, upto = seg_bounds m k in
            if got < upto - from_idx then begin
              m.attempts.(k) <- m.attempts.(k) + 1;
              let donor =
                m.donors.((k + m.attempts.(k)) mod Array.length m.donors)
              in
              send_wire t s.id donor
                (Seg_req { cfg; seg = k; from_idx = from_idx + got; upto })
            end)
          m.received

  (* A base snapshot covering [0, idx). Only the index and command count
     feed the harness (which replays counts, not state); the payload is
     carried for faithful byte accounting. *)
  let on_snap_resp t s ~cfg ~idx ~cmds =
    match s.migration with
    | None -> ()
    | Some m ->
        if m.snap_pending then begin
          m.snap_pending <- false;
          m.snap_cmds <- cmds;
          start_tail t s ~cfg m ~from:idx
        end
        else if idx > m.tail_from && m.remaining_segments > 0 then begin
          (* Donors compacted past the tail base mid-migration (a donor
             answered a below-floor [Seg_req] with its snapshot): restart
             the tail on the newer base, which drops the count from the
             discarded chunks; [cmds] covers their commands. *)
          m.snap_cmds <- cmds;
          start_tail t s ~cfg m ~from:idx
        end

  let on_seg_resp t s ~cfg ~seg ~from_idx ~entries =
    match s.migration with
    | None -> ()
    (* A tail restart shrinks the segment arrays, so a response to an
       earlier striping can carry an out-of-range segment id. *)
    | Some m when seg >= Array.length m.received -> ()
    | Some m ->
        let seg_from, seg_upto = seg_bounds m seg in
        let expected_next = seg_from + m.received.(seg) in
        if from_idx <= expected_next && m.received.(seg) < seg_upto - seg_from
        then begin
          let skip = expected_next - from_idx in
          let fresh = List.filteri (fun i _ -> i >= skip) entries in
          let fresh_len = List.length fresh in
          if fresh_len > 0 then begin
            (* The joiner counts the commands it fetched: the migration
               carries counts, not state. *)
            m.tail_cmds <-
              List.fold_left
                (fun n (e : Omnipaxos.Entry.t) ->
                  match e with
                  | Omnipaxos.Entry.Cmd c when c.Command.id >= 0 -> n + 1
                  | Omnipaxos.Entry.Cmd _ | Omnipaxos.Entry.Stop_sign _ -> n)
                m.tail_cmds fresh;
            m.received.(seg) <- m.received.(seg) + fresh_len;
            if m.received.(seg) = seg_upto - seg_from then begin
              m.remaining_segments <- m.remaining_segments - 1;
              if m.remaining_segments = 0 then begin
                let ss_nodes = t.p.new_nodes in
                finish_migration t s ~cfg ~nodes:ss_nodes m
              end
            end
          end
        end

  (* Serve the compacted base: the snapshot of the decided prefix plus its
     client-command count, so a joiner seeds [base_cmds] without replaying
     the trimmed prefix. *)
  let on_snap_req t s ~src ~cfg =
    match s.replicas.(0) with
    | None -> ()
    | Some r0 ->
        let store = R.store r0 in
        send_wire t s.id src
          (Snap_resp
             {
               cfg;
               idx = Store.applied store;
               cmds = Store.client_cmds store;
               payload = Store.encode store ~idx:(Store.applied store);
             })

  (* Serve decided entries of the old configuration (even a server that has
     not seen the stop-sign yet can serve its decided prefix). A request
     below this donor's trim point cannot be answered with entries — ship
     the snapshot instead and let the joiner restart its tail above it. *)
  let on_seg_req t s ~src ~cfg ~seg ~from_idx ~upto =
    match s.replicas.(0) with
    | None -> ()
    | Some r0 ->
        if from_idx < R.first_idx r0 then on_snap_req t s ~src ~cfg
        else begin
          let available = min upto (R.decided_idx r0) in
          if available > from_idx then begin
            let entries =
              Log.sub (R.read_log r0) ~pos:from_idx ~len:(available - from_idx)
            in
            send_wire t s.id src (Seg_resp { cfg; seg; from_idx; entries })
          end
        end

  let handle t s ~src wire =
    match wire with
    | Rep { cfg; m } -> (
        match s.replicas.(cfg) with
        | Some r -> R.handle r ~src m
        | None -> ())
    | New_config { cfg; nodes; total } ->
        if Option.is_none s.migration && Option.is_none s.replicas.(cfg)
        then begin
          ignore nodes;
          start_migration t s ~cfg ~total
        end
    | Seg_req { cfg; seg; from_idx; upto } ->
        on_seg_req t s ~src ~cfg ~seg ~from_idx ~upto
    | Seg_resp { cfg; seg; from_idx; entries } ->
        on_seg_resp t s ~cfg ~seg ~from_idx ~entries
    | Snap_req { cfg } -> on_snap_req t s ~src ~cfg
    | Snap_resp { cfg; idx; cmds; payload = _ } ->
        on_snap_resp t s ~cfg ~idx ~cmds

  (* The proposal target: the most advanced non-stopped leader. *)
  let leader t =
    let best = ref None in
    Array.iter
      (fun s ->
        let cfg = newest s in
        match s.replicas.(cfg) with
        | Some r when R.is_leader r && not (R.is_stopped r) -> (
            let cmds = server_cmds s in
            match !best with
            | Some ((bc, bm), _) when bc > cfg || (bc = cfg && bm >= cmds) ->
                ()
            | Some _ | None -> best := Some ((cfg, cmds), s.id))
        | Some _ | None -> ())
      t.servers;
    Option.map snd !best

  let propose t leader cmd =
    let s = t.servers.(leader) in
    match s.replicas.(newest s) with
    | Some r -> R.propose_cmd r cmd
    | None -> false

  (* Ask the current old-configuration leader to stop the configuration. *)
  let try_request_reconfig t =
    if Option.is_none t.reconfig_committed_at then
      Array.iter
        (fun s ->
          match s.replicas.(0) with
          | Some r when R.is_leader r && not (R.is_stopped r) ->
              ignore
                (R.propose_reconfigure r ~config_id:1 ~nodes:t.p.new_nodes)
          | Some _ | None -> ())
        t.servers

  let preloaded_storage preload =
    let storage = R.Storage.create () in
    let sp = storage.R.Storage.sp in
    for _ = 1 to preload do
      Log.append sp.Omnipaxos.Sequence_paxos.log
        (Omnipaxos.Entry.Cmd (Command.noop internal_id))
    done;
    (* The replica's [create] applies the preload to the store, which
       then stands at [preload] too. *)
    sp.Omnipaxos.Sequence_paxos.decided_idx <- preload;
    storage

  (* Ticks every replica and retries missing segments. *)
  let tick t =
    t.ticks <- t.ticks + 1;
    Array.iter
      (fun s ->
        iter_replicas R.tick s;
        if
          Option.is_some s.migration
          && t.ticks mod (4 * t.election_ticks) = 0
        then request_missing t s ~cfg:1)
      t.servers;
    if t.ss_requested && Option.is_none t.reconfig_committed_at then
      try_request_reconfig t

  let run (p : params) : result =
    drive p @@ fun net ~election_ticks ->
    let continuing =
      List.filter (fun j -> List.mem j p.new_nodes) p.old_nodes
    in
    let servers =
      Array.init p.net_cfg.n (fun id ->
          {
            id;
            replicas = Array.make 2 None;
            transitioned = false;
            migration = None;
            base_cmds = 0;
          })
    in
    let t =
      {
        p;
        net;
        servers;
        continuing;
        election_ticks;
        ticks = 0;
        ss_requested = false;
        reconfig_committed_at = None;
        migration_done_at = None;
      }
    in
    List.iter
      (fun id ->
        start_replica t servers.(id) ~cfg:0 ~nodes:p.old_nodes
          ~storage:(preloaded_storage p.preload))
      p.old_nodes;
    Array.iter
      (fun s ->
        Net.set_handler net s.id (fun ~src m -> handle t s ~src m);
        Net.set_session_handler net s.id (fun ~peer ->
            iter_replicas (fun r -> R.session_reset r ~peer) s))
      servers;
    {
      tick = (fun () -> tick t);
      decided = (fun () -> decided_total t);
      leader = (fun () -> leader t);
      propose = propose t;
      reconfigure =
        (fun () ->
          t.ss_requested <- true;
          try_request_reconfig t);
      committed_at = (fun () -> t.reconfig_committed_at);
      done_at = (fun () -> t.migration_done_at);
    }
end

module Raft_runner = struct
  module N = Raft.Node

  type t = {
    p : params;
    net : N.msg Net.t;
    nodes : N.t option array;
    election_ticks : int;
    mutable reconfig_requested : bool;
    mutable proposed_to : int option;
    mutable reconfig_committed_at : float option;
    mutable migration_done_at : float option;
  }

  let make_node t ~id ~voters ~persistent =
    let node =
      N.create ~id ~voters ~election_ticks:t.election_ticks
        ~rand:(Net.rng t.net) ~persistent
        ~send:(fun ~dst m -> Net.send t.net ~src:id ~dst ~size:(N.msg_size m) m)
        ()
    in
    t.nodes.(id) <- Some node;
    Net.set_handler t.net id (fun ~src m -> N.handle node ~src m);
    Net.set_session_handler t.net id (fun ~peer -> N.session_reset node ~peer)

  (* Client commands committed at [node], as its store counts them. *)
  let cmds node = Store.client_cmds (N.store node)

  let decided_total t =
    Array.fold_left
      (fun acc -> function Some node -> max acc (cmds node) | None -> acc)
      0 t.nodes

  let leader t =
    let best = ref None in
    Array.iteri
      (fun id -> function
        | Some node when Net.is_up t.net id && N.is_leader node -> (
            match !best with
            | Some (_, d) when d >= cmds node -> ()
            | Some _ | None -> best := Some (id, cmds node))
        | Some _ | None -> ())
      t.nodes;
    Option.map fst !best

  let propose t leader cmd =
    match t.nodes.(leader) with
    | Some node -> N.propose node cmd
    | None -> false

  (* Activate the new servers as learners at the current leader and append
     the config entry; re-issued if leadership moves before it commits. *)
  let advance_reconfig t =
    if t.reconfig_requested && Option.is_none t.reconfig_committed_at
    then begin
      (* Activate new server nodes on first use. They join as true learners
         (not in the voter set), so they cannot campaign while catching up;
         the committed Config entry promotes them. *)
      List.iter
        (fun id ->
          if Option.is_none t.nodes.(id) then
            make_node t ~id ~voters:t.p.old_nodes
              ~persistent:(N.fresh_persistent ()))
        t.p.new_nodes;
      let already_proposed l =
        match t.proposed_to with Some p -> Int.equal p l | None -> false
      in
      match leader t with
      | Some l when not (already_proposed l) ->
          let node = Option.get t.nodes.(l) in
          let joining =
            List.filter (fun j -> not (List.mem j t.p.old_nodes)) t.p.new_nodes
          in
          N.add_learners node joining;
          if N.propose_config node ~config_id:1 ~voters:t.p.new_nodes then
            t.proposed_to <- Some l
      | Some _ | None -> ()
    end

  let check_progress t =
    (if Option.is_none t.reconfig_committed_at then
       let committed =
         Array.exists
           (function
             | Some node -> Option.is_some (N.committed_config node)
             | None -> false)
           t.nodes
       in
       if committed then begin
         t.reconfig_committed_at <- Some (Net.now t.net);
         trace_milestone ~node:(-1) ~config_id:1 "config-committed"
       end);
    if Option.is_none t.migration_done_at
       && Option.is_some t.reconfig_committed_at
    then
      if
        List.for_all
          (fun id ->
            match t.nodes.(id) with
            | Some node -> Option.is_some (N.committed_config node)
            | None -> false)
          t.p.new_nodes
      then begin
        t.migration_done_at <- Some (Net.now t.net);
        trace_milestone ~node:(-1) ~config_id:1 "migration-done";
        (* Only now do the removed servers shut down: they keep relaying
           until every member of the new configuration is functional. *)
        List.iter
          (fun id ->
            if not (List.mem id t.p.new_nodes) then Net.crash t.net id)
          t.p.old_nodes
      end

  let preloaded_persistent preload =
    let persistent = N.fresh_persistent () in
    persistent.N.term <- 1;
    for _ = 1 to preload do
      Log.append persistent.N.log
        { N.term = 1; data = N.Cmd (Command.noop internal_id) }
    done;
    persistent

  let tick t =
    Array.iteri
      (fun id -> function
        | Some node when Net.is_up t.net id -> N.tick node
        | Some _ | None -> ())
      t.nodes;
    advance_reconfig t;
    check_progress t

  let run (p : params) : result =
    drive p @@ fun net ~election_ticks ->
    let t =
      {
        p;
        net;
        nodes = Array.make p.net_cfg.n None;
        election_ticks;
        reconfig_requested = false;
        proposed_to = None;
        reconfig_committed_at = None;
        migration_done_at = None;
      }
    in
    List.iter
      (fun id ->
        make_node t ~id ~voters:p.old_nodes
          ~persistent:(preloaded_persistent p.preload))
      p.old_nodes;
    {
      tick = (fun () -> tick t);
      decided = (fun () -> decided_total t);
      leader = (fun () -> leader t);
      propose = propose t;
      reconfigure = (fun () -> t.reconfig_requested <- true);
      committed_at = (fun () -> t.reconfig_committed_at);
      done_at = (fun () -> t.migration_done_at);
    }
end

(* Reading a result: the numbers Figure 9 reports, over 5 s windows. *)

let window_s = 5

let window_rates p r =
  List.map
    (fun (t, d) -> (t, float_of_int d /. float_of_int window_s))
    (Metrics.Series.windowed r.series ~from:0.0 ~until:p.total_ms
       ~window:(1000.0 *. float_of_int window_s))

(* [io_series] holds 1 s samples of cumulative bytes, so a window spans
   [window_s] consecutive samples. *)
let peak_window_bytes r =
  let samples = Array.of_list (List.map snd r.io_series) in
  let peak = ref 0 in
  for i = 0 to Array.length samples - 1 - window_s do
    Array.iteri
      (fun node b -> peak := max !peak (b - samples.(i).(node)))
      samples.(i + window_s)
  done;
  !peak

let busiest_node_bytes p r =
  let upto = Option.value r.migration_done_at ~default:p.total_ms in
  let at time =
    let rec last acc = function
      | (t, b) :: rest when t <= time -> last (Some b) rest
      | _ -> acc
    in
    last None r.io_series
  in
  match (at p.reconfigure_at, at (upto +. 1000.0)) with
  | Some before, Some after ->
      let busiest = ref 0 in
      Array.iteri (fun i b -> busiest := max !busiest (b - before.(i))) after;
      !busiest
  | _ -> 0

let pp_result p name ppf r =
  let pf fmt = Format.fprintf ppf fmt in
  let at = function
    | Some t -> Printf.sprintf "%.1fs" (t /. 1000.0)
    | None -> "never"
  in
  pf "@\n%s: throughput per %ds window (req/s)@\n  " name window_s;
  List.iter
    (fun (t, rate) -> pf "%.0fs:%d " (t /. 1000.0) (truncate rate))
    (window_rates p r);
  pf "@\n  reconfig committed: %s   all new servers running: %s@\n"
    (at r.reconfig_committed_at) (at r.migration_done_at);
  pf "  leader changes: %d   peak per-node egress over a %ds window: %.1f MB@\n"
    r.leader_changes window_s
    (float_of_int (peak_window_bytes r) /. 1.0e6)

let pp_comparison p ppf (omni, raft) =
  let pf fmt = Format.fprintf ppf fmt in
  pp_result p "Omni-Paxos (parallel service-layer migration)" ppf omni;
  pp_result p "Raft (leader-driven migration)" ppf raft;
  (match (omni.migration_done_at, raft.migration_done_at) with
  | Some o, Some r ->
      let od = o -. p.reconfigure_at and rd = r -. p.reconfigure_at in
      pf "@\nreconfiguration period: omni %.1fs vs raft %.1fs -> %.1fx shorter@\n"
        (od /. 1000.0) (rd /. 1000.0) (rd /. od)
  | _ -> pf "@\n(one of the reconfigurations did not complete)@\n");
  let po = busiest_node_bytes p omni and pr = busiest_node_bytes p raft in
  if pr > 0 then
    pf
      "busiest-node egress during reconfiguration: omni %.2f MB vs raft %.2f \
       MB -> %.0f%% less IO@\n"
      (float_of_int po /. 1.0e6)
      (float_of_int pr /. 1.0e6)
      (100.0 *. (1.0 -. (float_of_int po /. float_of_int pr)))
