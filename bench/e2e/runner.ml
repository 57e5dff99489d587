(* One core run of a workload: replicas of one seeded run, each in its own
   process, set up (timed) and measured over [Spec.windows] equal
   simulated-time windows; the last one is then drained and its outputs
   checked. [Make (P)] runs protocol [P]; when [P] is a [Timed.Make]
   instance ([P.timed]) the bench also opens frames around the calls it
   makes into the program ([Net.run_for], client polls, trace sinks, its
   own harness). *)

module Net = Simnet.Net
module H = Obs.Metric.Histogram
module Series = Rsm.Metrics.Series

let s_dispatch = Frames.site "simnet.dispatch"
let s_poll = Frames.site "rsm.client.poll"
let s_harness = Frames.site "bench.harness"
let s_encode = Frames.site "obs.encode"
let s_monitor = Frames.site "obs.monitor"

type outcome = {
  core : string;
  commits : int;  (** committed in the measured phase *)
  measure_ms : float;
  wall_ns : int;
      (** host time of the measured phase: the sum over windows of the
          fastest replica's time *)
  replica_wall_ns : int;  (** the median replica's measured-phase time *)
  cpu_frac : float;  (** CPU time / wall time over all replicas *)
  minor_words : float;
  setup_s : float;  (** median over the set-ups *)
  p50_ms : float;
  p999_ms : float;
  samples : int;
  bytes : int;  (** delivered in the measured phase *)
  downtime_ms : float;
  attempted : int;  (** whole run *)
  failed : int;
  peak_heap_words : int;
  checks : (string * (unit, string) result) list;
  raw : (string * float) list;  (** per-layer sums, timed runs only *)
}

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let host_ns_per_cmd o = float_of_int o.wall_ns /. float_of_int o.commits

(* FNV-style mixing for the decided-id agreement fingerprints. *)
let mix h id = (h lxor id) * 0x100000001b3 land max_int

module Make (P : Timed.S) = struct
  module C = Rsm.Cluster.Make (P)

  let core = Timed.layer_of_name P.name

  let framed site f =
    if P.timed then (fun () ->
      Frames.enter site;
      match f () with
      | () -> Frames.leave ()
      | exception e ->
          Frames.leave ();
          raise e)
    else f

  let run_for net ms =
    if P.timed then begin
      Frames.enter s_dispatch;
      Net.run_for net ms;
      Frames.leave ()
    end
    else Net.run_for net ms

  (* The open-loop generator: Poisson arrivals from the bench's own RNG;
     every 1 ms of simulated time due commands go to the current leader,
     held while there is none and re-submitted with their original due time
     after 4 election timeouts without a decide. Latency runs from the due
     time to the poll that sees the decide. *)
  type openloop = {
    rng : Random.State.t;
    rate_per_ms : float;
    mutable next_due : float;
    mutable next_id : int;
    mutable generating : bool;
    mutable polling : bool;
    mutable due : float array;
        (** by command id: due time while outstanding, -1 once committed *)
    held : (int * float * bool) Queue.t;  (** id, due, first submission *)
    sent : (int * float) Queue.t;  (** id, submit time *)
    cursor : int array;  (** per node: decided ids already scanned *)
    mutable lat : H.t;
    lag : H.t;
    ol_series : Series.t;
    mutable ol_attempted : int;
    mutable committed : int;
    mutable resubmits : int;
  }

  let resubmit_ms = 4.0 *. Spec.election_timeout_ms

  (* Where the open loop sends: the server a majority of live servers name
     as leader, if it agrees; otherwise there is no leader and due commands
     are held. [C.leader] is not used: an isolated old leader keeps calling
     itself leader (and has decided the most, which is what it picks), but
     cannot decide anything. *)
  let open_loop_leader c ~n =
    let net = C.net c in
    let votes = Array.make n 0 in
    for i = 0 to n - 1 do
      if Net.is_up net i then
        match P.leader_pid (C.node c i) with
        | Some l when l >= 0 && l < n -> votes.(l) <- votes.(l) + 1
        | Some _ | None -> ()
    done;
    let best = ref 0 in
    Array.iteri (fun i v -> if v > votes.(!best) then best := i) votes;
    if 2 * votes.(!best) > n && Net.is_up net !best && P.is_leader (C.node c !best)
    then Some !best
    else None

  let ol_poll o c =
    let now = C.now c in
    let leader = open_loop_leader c ~n:(Array.length o.cursor) in
    (match leader with
    | None -> ()
    | Some l ->
        let node = C.node c l in
        let count = P.decided_count node in
        if count > o.cursor.(l) then begin
          List.iter
            (fun id ->
              let due = o.due.(id) in
              if due >= 0.0 then begin
                o.due.(id) <- -1.0;
                H.observe o.lat (now -. due);
                o.committed <- o.committed + 1
              end)
            (P.decided_ids node ~from:o.cursor.(l));
          o.cursor.(l) <- count
        end);
    if o.generating then
      while o.next_due <= now do
        let id = o.next_id in
        o.next_id <- id + 1;
        if id = Array.length o.due then begin
          let bigger = Array.make (2 * id) (-1.0) in
          Array.blit o.due 0 bigger 0 id;
          o.due <- bigger
        end;
        o.due.(id) <- o.next_due;
        Queue.push (id, o.next_due, true) o.held;
        o.ol_attempted <- o.ol_attempted + 1;
        let u = 1.0 -. Random.State.float o.rng 1.0 in
        o.next_due <- o.next_due -. (log u /. o.rate_per_ms)
      done;
    while
      (not (Queue.is_empty o.sent)) && snd (Queue.peek o.sent) +. resubmit_ms <= now
    do
      let id, _ = Queue.pop o.sent in
      let due = o.due.(id) in
      if due >= 0.0 then begin
        Queue.push (id, due, false) o.held;
        o.resubmits <- o.resubmits + 1
      end
    done;
    (match leader with
    | None -> ()
    | Some l ->
        let node = C.node c l in
        let refused = ref false in
        while (not !refused) && not (Queue.is_empty o.held) do
          let id, due, first = Queue.peek o.held in
          if o.due.(id) < 0.0 then ignore (Queue.pop o.held)
          else if P.propose node (Replog.Command.noop id) then begin
            ignore (Queue.pop o.held);
            Queue.push (id, now) o.sent;
            if first then H.observe o.lag (now -. due)
          end
          else refused := true
        done);
    Series.push o.ol_series ~time:now ~count:o.committed

  let start_openloop c ~seed ~n ~rate_per_s =
    let o =
      {
        rng = Random.State.make [| seed; 0x6f70656e |];
        rate_per_ms = rate_per_s /. 1000.0;
        next_due = C.now c;
        next_id = 0;
        generating = true;
        polling = true;
        due = Array.make 4096 (-1.0);
        held = Queue.create ();
        sent = Queue.create ();
        cursor = Array.make n 0;
        lat = H.create ();
        lag = H.create ();
        ol_series = Series.create ();
        ol_attempted = 0;
        committed = 0;
        resubmits = 0;
      }
    in
    let net = C.net c in
    let rec loop () =
      Net.schedule net ~delay:1.0
        (framed s_harness (fun () ->
             if o.polling then begin
               ol_poll o c;
               loop ()
             end))
    in
    loop ();
    o

  type closed = {
    client : Rsm.Client.t;
    cl_attempted : int ref;  (** proposals accepted *)
    batches : int ref;  (** [propose_batch] calls *)
  }

  (* The same callbacks [Cluster.start_client] passes, built here so the
     bench can count submissions and, when timed, frame each poll. *)
  let start_closed c ~cp =
    let net = C.net c in
    let cl_attempted = ref 0 and batches = ref 0 in
    let client =
      Rsm.Client.start
        ~retry_ms:(4.0 *. Spec.election_timeout_ms)
        ~poll_ms:Spec.tick_ms ~cp
        {
          Rsm.Client.now = (fun () -> C.now c);
          decided = (fun () -> C.max_decided c);
          leader = (fun () -> C.leader c);
          propose_batch =
            (fun ~leader ~first_id ~count ->
              let got = C.propose_batch c ~leader ~first_id ~count in
              cl_attempted := !cl_attempted + got;
              incr batches;
              got);
          schedule = (fun ~delay f -> Net.schedule net ~delay (framed s_poll f));
        }
    in
    { client; cl_attempted; batches }

  type load_state = Closed_loop of closed | Open_loop of openloop

  type tracing = {
    writer : Obs.Tracebin.writer;
    monitor : Obs.Invariant.Monitor.t;
    elections : int ref;  (** leader ballots seen so far *)
    subs : int list;
  }

  (* An election is a ballot some server first observes as its leader's:
     each server reports it once, as Leader_elected or Leader_changed. *)
  let count_elections elections =
    let seen = Hashtbl.create 16 in
    fun (e : Obs.Event.t) ->
      match e.Obs.Event.kind with
      | Obs.Event.Leader_elected b | Obs.Event.Leader_changed b ->
          if not (Hashtbl.mem seen b) then begin
            Hashtbl.add seen b ();
            incr elections
          end
      | _ -> ()

  let start_tracing () =
    let writer = Obs.Tracebin.writer ~meta:(Obs.Trace.run_meta ()) ignore in
    let monitor = Obs.Invariant.Monitor.create () in
    let elections = ref 0 in
    let sink site f =
      if P.timed then (fun e ->
        Frames.enter site;
        f e;
        Frames.leave ())
      else f
    in
    let subs =
      [
        Obs.Trace.subscribe (sink s_encode (Obs.Tracebin.write writer));
        Obs.Trace.subscribe
          (sink s_monitor (Obs.Invariant.Monitor.observe monitor));
        Obs.Trace.subscribe (sink s_harness (count_elections elections));
      ]
    in
    Obs.Trace.set_enabled true;
    { writer; monitor; elections; subs }

  let stop_tracing tr =
    List.iter Obs.Trace.unsubscribe tr.subs;
    Obs.Trace.set_enabled false;
    Obs.Tracebin.flush tr.writer

  type inst = {
    c : C.t;
    load : load_state;
    tracing : tracing option;
  }

  let setup (w : Spec.t) (sz : Spec.sizing) ~seed ~n =
    let c = C.create (Spec.cluster_config w ~seed ~n) in
    let tracing = if w.Spec.traced then Some (start_tracing ()) else None in
    let load =
      match w.Spec.load with
      | Spec.Closed cp -> Closed_loop (start_closed c ~cp)
      | Spec.Open rate_per_s ->
          Open_loop (start_openloop c ~seed ~n ~rate_per_s)
    in
    run_for (C.net c) sz.Spec.warmup_ms;
    { c; load; tracing }

  let committed inst =
    match inst.load with
    | Closed_loop s -> Rsm.Client.decided s.client
    | Open_loop o -> o.committed

  let series inst =
    match inst.load with
    | Closed_loop s -> Rsm.Client.series s.client
    | Open_loop o -> o.ol_series

  let installs c ~n =
    let k = ref 0 in
    for i = 0 to n - 1 do
      match P.last_install (C.node c i) with
      | Some ins -> k := !k + ins.Rsm.Protocol.inst_seq
      | None -> ()
    done;
    !k

  (* The fault cycle of omni-faults, in units of [u] ms, starting now:
     quorum loss 5, heal 2; constrained election 5 (the QC server's link to
     the leader cut half a timeout earlier), heal 2; a chain with the leader
     at one end 5, heal 2; a follower crashed 5 (so compaction trims past
     it), recovered 3 (snapshot install). Returns the fault windows (each
     fault plus the heal after it) in absolute simulated time. *)
  let schedule_faults c ~n ~u ~cycles =
    let net = C.net c in
    let t_start = C.now c in
    let at t f = Net.schedule net ~delay:(t *. u) (framed s_harness f) in
    let leader () = Option.value (C.leader c) ~default:0 in
    let heal () = Rsm.Scenario.heal net in
    let half_timeout = Spec.election_timeout_ms /. 2.0 /. u in
    let windows = ref [] in
    for k = 0 to cycles - 1 do
      let t0 = float_of_int k *. Spec.fault_cycle_units in
      at t0 (fun () ->
          let l = leader () in
          Rsm.Scenario.quorum_loss net ~hub:(if l = 0 then 1 else 0));
      at (t0 +. 5.0) heal;
      let picked = ref None in
      at (t0 +. 7.0 -. half_timeout) (fun () ->
          let l = leader () in
          let qc = if l = 0 then 1 else 0 in
          picked := Some (qc, l);
          Net.set_link net qc l false);
      at (t0 +. 7.0) (fun () ->
          match !picked with
          | Some (qc, leader) -> Rsm.Scenario.constrained net ~qc ~leader
          | None -> ());
      at (t0 +. 12.0) heal;
      at (t0 +. 14.0) (fun () ->
          let l = leader () in
          let rest = List.filter (fun i -> i <> l) (List.init n Fun.id) in
          Rsm.Scenario.chain_of net ~order:(l :: rest));
      at (t0 +. 19.0) heal;
      let victim = ref 0 in
      at (t0 +. 21.0) (fun () ->
          victim := (leader () + 1) mod n;
          C.crash c !victim);
      at (t0 +. 26.0) (fun () -> C.recover c !victim);
      List.iter
        (fun (a, b) ->
          windows := (t_start +. ((t0 +. a) *. u), t_start +. ((t0 +. b) *. u)) :: !windows)
        [ (0.0, 7.0); (7.0, 14.0); (14.0, 21.0); (21.0, 29.0) ]
    done;
    List.rev !windows

  (* Every live node has decided the same log (equal decided index after
     the drain), and every pair agrees on the decided ids they share: a
     node's ids from its last install on are compared, aligned at the end,
     with the same-length suffix of the node holding the longest run. *)
  let check_agreement c ~n =
    let net = C.net c in
    let live = List.filter (Net.is_up net) (List.init n Fun.id) in
    let idx = List.map (fun i -> P.decided_index (C.node c i)) live in
    match idx with
    | [] -> Error "no live node"
    | i0 :: _ when List.exists (fun i -> i <> i0) idx ->
        Error
          ("decided indexes differ after the drain: "
          ^ String.concat " " (List.map string_of_int idx))
    | _ :: _ ->
        let info i =
          let node = C.node c i in
          let from =
            match P.last_install node with
            | Some ins -> ins.Rsm.Protocol.inst_cache_len
            | None -> 0
          in
          (i, from, P.decided_count node - from)
        in
        let infos = Array.of_list (List.map info live) in
        let r, r_from, r_len =
          Array.fold_left
            (fun ((_, _, bl) as best) ((_, _, l) as x) ->
              if l > bl then x else best)
            infos.(0) infos
        in
        let accs = Array.make (Array.length infos) 0 in
        List.iteri
          (fun k id ->
            Array.iteri
              (fun j (_, _, len) ->
                if k >= r_len - len then accs.(j) <- mix accs.(j) id)
              infos)
          (P.decided_ids (C.node c r) ~from:r_from);
        let bad = ref None in
        Array.iteri
          (fun j (i, from, len) ->
            let own =
              List.fold_left mix 0 (P.decided_ids (C.node c i) ~from)
            in
            if own <> accs.(j) && Option.is_none !bad then
              bad :=
                Some
                  (Printf.sprintf
                     "node %d disagrees with node %d on its last %d decided ids"
                     i r len))
          infos;
        Option.fold ~none:(Ok ()) ~some:(fun m -> Error m) !bad

  let gc_delta (a : Gc.stat) (b : Gc.stat) =
    [
      ("gc.minor", float_of_int (b.Gc.minor_collections - a.Gc.minor_collections));
      ("gc.major", float_of_int (b.Gc.major_collections - a.Gc.major_collections));
      ("gc.promoted", b.Gc.promoted_words -. a.Gc.promoted_words);
    ]

  (* Heap pops, then the deliver, timer and egress-step dispatches. *)
  let net_counts net =
    let d = Net.dispatch_counts net in
    let hs = Net.heap_stats net in
    ( hs.Net.hs_pops,
      List.assoc "deliver" d,
      List.assoc "timer" d,
      List.assoc "egress_step" d )

  (* One measured phase on a set-up instance: [Spec.windows] equal windows
     of simulated time, with the wall time and commits of each. *)
  type phase = {
    window_wall : int array;
    window_commits : int array;
    ph_commits : int;
    ph_sim_ms : float;
    ph_cpu_s : float;
    ph_words : float;
    ph_p50_ms : float;
    ph_p999_ms : float;
    ph_samples : int;
    ph_bytes : int;
    ph_downtime_ms : float;
    ph_raw : (string * float) list;
  }

  let measure (w : Spec.t) inst ~n =
    let c = inst.c in
    let net = C.net c in
    let m0 = C.now c in
    let fault_windows =
      if w.Spec.cycles > 0 then
        schedule_faults c ~n ~u:w.Spec.fault_unit_ms ~cycles:w.Spec.cycles
      else []
    in
    (match inst.load with
    | Closed_loop s -> Rsm.Client.reset_latency s.client
    | Open_loop o -> o.lat <- H.create ());
    let installs0 = installs c ~n in
    let batches0, cmds0, leader_changes0 =
      match inst.load with
      | Closed_loop s ->
          (!(s.batches), !(s.cl_attempted), Rsm.Client.leader_changes s.client)
      | Open_loop _ -> (0, 0, 0)
    in
    let resubmits0 =
      match inst.load with Open_loop o -> o.resubmits | Closed_loop _ -> 0
    in
    let elections () =
      match inst.tracing with Some tr -> !(tr.elections) | None -> 0
    in
    let elections0 = elections () in
    let obs0 =
      match inst.tracing with
      | Some tr ->
          (Obs.Tracebin.written_events tr.writer, Obs.Tracebin.written_bytes tr.writer)
      | None -> (0, 0)
    in
    let ev0, del0, tim0, egr0 = net_counts net in
    let bytes0 = Net.bytes_delivered net in
    let msgs0 = Net.messages_delivered net in
    let committed0 = committed inst in
    let window_ms = w.Spec.measure_ms /. float_of_int Spec.windows in
    let window_wall = Array.make Spec.windows 0 in
    let window_commits = Array.make Spec.windows 0 in
    let gc0 = Gc.quick_stat () in
    let cpu0 = Sys.time () in
    let words0 = Gc.minor_words () in
    if P.timed then Frames.reset ();
    for i = 0 to Spec.windows - 1 do
      let k0 = committed inst in
      let t0 = Frames.now_ns () in
      run_for net window_ms;
      window_wall.(i) <- Frames.now_ns () - t0;
      window_commits.(i) <- committed inst - k0
    done;
    let words1 = Gc.minor_words () in
    let cpu1 = Sys.time () in
    let gc1 = Gc.quick_stat () in
    let sites =
      List.init !Frames.n_sites (fun i ->
          let nm = Frames.names.(i) in
          [
            ("site." ^ nm ^ ".calls", float_of_int Frames.calls.(i));
            ("site." ^ nm ^ ".self_ns", Frames.to_ns Frames.self_ticks.(i));
            ("site." ^ nm ^ ".self_words", float_of_int Frames.self_words.(i));
          ])
    in
    let m1 = C.now c in
    let commits = committed inst - committed0 in
    let ev1, del1, tim1, egr1 = net_counts net in
    let bytes = Net.bytes_delivered net - bytes0 in
    let msgs = Net.messages_delivered net - msgs0 in
    let lat, lag_p99, resubmits =
      match inst.load with
      | Closed_loop s -> (Rsm.Client.latency s.client, 0.0, 0)
      | Open_loop o -> (o.lat, H.percentile o.lag ~p:99.0, o.resubmits - resubmits0)
    in
    let downtime_ms =
      match fault_windows with
      | [] -> Series.longest_gap (series inst) ~from:m0 ~until:m1
      | ws ->
          List.fold_left
            (fun acc (a, b) -> acc +. Series.longest_gap (series inst) ~from:a ~until:b)
            0.0 ws
    in
    let obs_events, obs_bytes =
      match inst.tracing with
      | Some tr ->
          ( Obs.Tracebin.written_events tr.writer - fst obs0,
            Obs.Tracebin.written_bytes tr.writer - snd obs0 )
      | None -> (0, 0)
    in
    let client_raw =
      match inst.load with
      | Closed_loop s ->
          [
            ("client.cmds", float_of_int (!(s.cl_attempted) - cmds0));
            ("client.batches", float_of_int (!(s.batches) - batches0));
            ( "client.leader_changes",
              float_of_int (Rsm.Client.leader_changes s.client - leader_changes0) );
          ]
      | Open_loop _ -> []
    in
    let raw =
      if not P.timed then []
      else
        List.concat sites
        @ [
            ("wall_ns", float_of_int (Array.fold_left ( + ) 0 window_wall));
            ("commits", float_of_int commits);
            ("commits." ^ core, float_of_int commits);
            ("net.events", float_of_int (ev1 - ev0));
            ("net.deliver", float_of_int (del1 - del0));
            ("net.timer", float_of_int (tim1 - tim0));
            ("net.egress_step", float_of_int (egr1 - egr0));
            ("net.heap_hw", float_of_int (Net.heap_stats net).Net.hs_high_water);
            ("net.msgs", float_of_int msgs);
            ("net.bytes", float_of_int bytes);
            ("obs.events", float_of_int obs_events);
            ("obs.bytes", float_of_int obs_bytes);
            ("openloop.lag_p99_ms", lag_p99);
            ("openloop.resubmits", float_of_int resubmits);
          ]
        @ client_raw
        @ (if String.equal core "omnipaxos" then
             [
               ("omnipaxos.elections", float_of_int (elections () - elections0));
               ("omnipaxos.installs", float_of_int (installs c ~n - installs0));
             ]
           else [])
        @ gc_delta gc0 gc1
    in
    {
      window_wall;
      window_commits;
      ph_commits = commits;
      ph_sim_ms = m1 -. m0;
      ph_cpu_s = cpu1 -. cpu0;
      ph_words = words1 -. words0;
      ph_p50_ms = H.percentile lat ~p:50.0;
      ph_p999_ms = H.percentile lat ~p:99.9;
      ph_samples = H.count lat;
      ph_bytes = bytes;
      ph_downtime_ms = downtime_ms;
      ph_raw = raw;
    }

  (* Drain (no new load, 10 election timeouts for in-flight commands), then
     the output checks. *)
  let finish inst ~n =
    let c = inst.c in
    (match inst.load with
    | Closed_loop s -> Rsm.Client.stop s.client
    | Open_loop o -> o.generating <- false);
    Net.run_for (C.net c) (10.0 *. Spec.election_timeout_ms);
    let attempted, final_committed =
      match inst.load with
      | Closed_loop s -> (!(s.cl_attempted), C.max_decided c)
      | Open_loop o ->
          o.polling <- false;
          (o.ol_attempted, o.committed)
    in
    let monitor_check =
      match inst.tracing with
      | None -> []
      | Some tr ->
          stop_tracing tr;
          [
            ( "invariant_monitor",
              match
                List.filter_map
                  (fun (name, r) ->
                    match r with
                    | Ok () -> None
                    | Error v ->
                        Some
                          (Format.asprintf "%s: %a" name
                             Obs.Invariant.pp_violation v))
                  (Obs.Invariant.Monitor.results tr.monitor)
              with
              | [] -> Ok ()
              | errs -> Error (String.concat "; " errs) );
          ]
    in
    ( attempted,
      max 0 (attempted - final_committed),
      ("agreement", check_agreement c ~n) :: monitor_check )

  type replica = {
    setup_s : float;
    phase : phase;
    top_heap_words : int;  (** read after the measured phase *)
    final : (int * int * (string * (unit, string) result) list) option;
        (** the last replica's attempted, failed and output checks *)
  }

  let replica (w : Spec.t) sz ~seed ~n ~last =
    let t0 = Frames.now_ns () in
    let inst = setup w sz ~seed ~n in
    let setup_s = float_of_int (Frames.now_ns () - t0) /. 1e9 in
    let phase = measure w inst ~n in
    let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    if P.timed then Frames.write_spans ();
    { setup_s; phase; top_heap_words; final = (if last then Some (finish inst ~n) else None) }

  (* Run [f] in a forked child and return its result: every replica starts
     from the same fresh heap, and its peak heap is its own. *)
  let in_child f =
    flush_all ();
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        let oc = Unix.out_channel_of_descr wr in
        let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
        Marshal.to_channel oc r [];
        close_out oc;
        Unix._exit 0
    | pid -> (
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let r =
          match (Marshal.from_channel ic : (replica, string) result) with
          | r -> r
          | exception End_of_file -> Error "replica process died"
        in
        close_in ic;
        ignore (Unix.waitpid [] pid);
        match r with Ok v -> v | Error e -> failwith e)

  (* [sz.replicas] replicas of the same seeded run, one after the other,
     each in a fresh process. The simulation is deterministic, so the
     replicas do identical work; each window's host time is the fastest of
     its replicas, which drops the slowdowns a shared host adds while
     keeping every window (garbage collection and array growth concentrate
     in a few of them). *)
  let run (w : Spec.t) (sz : Spec.sizing) ~seed ~n =
    let replicas =
      List.init sz.Spec.replicas (fun r ->
          in_child (fun () -> replica w sz ~seed ~n ~last:(r = sz.Spec.replicas - 1)))
    in
    let phases = List.map (fun r -> r.phase) replicas in
    let ph = List.hd (List.rev phases) in
    let attempted, failed, checks =
      Option.get (List.hd (List.rev replicas)).final
    in
    let fastest =
      Array.init Spec.windows (fun i ->
          List.fold_left (fun a p -> min a p.window_wall.(i)) max_int phases)
    in
    let total p = Array.fold_left ( + ) 0 p.window_wall in
    let same_work =
      List.for_all (fun p -> p.window_commits = ph.window_commits) phases
    in
    let checks =
      ( "windows_commit",
        if Array.for_all (fun k -> k > 0) ph.window_commits then Ok ()
        else Error "a measured window committed nothing" )
      :: ( "replicas_identical",
           if same_work then Ok ()
           else Error "replicas of one seed committed different windows" )
      :: checks
    in
    {
      core;
      commits = ph.ph_commits;
      measure_ms = ph.ph_sim_ms;
      wall_ns = Array.fold_left ( + ) 0 fastest;
      replica_wall_ns =
        Float.to_int
          (median (Array.of_list (List.map (fun p -> float_of_int (total p)) phases)));
      cpu_frac =
        List.fold_left (fun a p -> a +. p.ph_cpu_s) 0.0 phases
        /. (float_of_int (List.fold_left (fun a p -> a + total p) 0 phases) /. 1e9);
      minor_words = ph.ph_words;
      setup_s = median (Array.of_list (List.map (fun r -> r.setup_s) replicas));
      p50_ms = ph.ph_p50_ms;
      p999_ms = ph.ph_p999_ms;
      samples = ph.ph_samples;
      bytes = ph.ph_bytes;
      downtime_ms = ph.ph_downtime_ms;
      attempted;
      failed;
      peak_heap_words =
        List.fold_left (fun a r -> max a r.top_heap_words) 0 replicas;
      checks;
      raw = ph.ph_raw;
    }
end
