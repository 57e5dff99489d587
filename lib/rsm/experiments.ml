(** The paper's evaluation experiments (§7), one runner per figure/table.
    Each function runs full clusters on the simulated network and returns the
    rows the corresponding figure plots. Durations, log sizes and bandwidth
    are scaled down from the paper's GCP testbed (see DESIGN.md §1); the
    comparative shapes are what these runners reproduce. *)

module Net = Simnet.Net

type scenario_kind = Quorum_loss | Constrained | Chained

let scenario_name = function
  | Quorum_loss -> "quorum-loss"
  | Constrained -> "constrained"
  | Chained -> "chained"

(* Latency assignment for the WAN setting of §7.1: the paper places the
   leader in us-central1 with followers in europe-west1 (105 ms RTT) and
   asia-northeast1 (145 ms RTT). The highest node id gets us-central so that
   protocols that favour the max ballot elect the "us" server. *)
let apply_wan_latencies net ~n =
  let region i =
    if i = n - 1 then `Us
    else if i < (n - 1) / 2 then `Asia
    else `Eu
  in
  let one_way a b =
    match (region a, region b) with
    | `Us, `Us | `Eu, `Eu | `Asia, `Asia -> 0.25
    | `Us, `Eu | `Eu, `Us -> 52.5
    | `Us, `Asia | `Asia, `Us -> 72.5
    | `Eu, `Asia | `Asia, `Eu -> 110.0
  in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      Net.set_latency net a b (one_way a b)
    done
  done

type throughput_point = {
  tp_protocol : string;
  tp_n : int;
  tp_setting : string;
  tp_cp : int;
  tp_mean : float;  (** decided requests per second *)
  tp_ci : float;
  tp_ble_io_pct : float;  (** share of total IO spent on BLE heartbeats *)
}

type downtime_point = {
  dt_protocol : string;
  dt_timeout_ms : float;
  dt_downtime_ms : float;
  dt_ci : float;
  dt_deadlocked : bool;  (** no recovery before the partition healed *)
  dt_leader_changes : float;
}

type chained_point = {
  ch_protocol : string;
  ch_duration_ms : float;
  ch_decided : float;
  ch_ci : float;
  ch_leader_changes : float;
}

(* One fully-instrumented normal-execution run: rate plus the client-visible
   latency distribution and the network-level message/byte volume. *)
type run_sample = {
  rs_rate : float;  (** decided requests per second *)
  rs_p50_ms : float;
  rs_p99_ms : float;
  rs_io_bytes : int;  (** total bytes sent across the cluster *)
  rs_msgs : int;  (** messages delivered across the cluster *)
}

type policy_point = {
  bp_protocol : string;
  bp_policy : string;  (** {!Omnipaxos.Batching.name} of the config *)
  bp_cp : int;
  bp_rate_mean : float;
  bp_rate_ci : float;
  bp_p50_ms : float;  (** mean across seeds *)
  bp_p99_ms : float;
  bp_io_bytes : int;  (** mean across seeds *)
  bp_msgs : int;
}

type catch_up_point = {
  cu_lag : int;  (** decided-index entries the follower missed *)
  cu_ms : float;  (** recovery-to-frontier latency, simulated ms *)
  cu_bytes : int;  (** bytes delivered to the follower during catch-up *)
  cu_caught : bool;  (** false = fuel ran out before reaching the frontier *)
  cu_installed : bool;  (** the repair went through a snapshot install *)
}

module Run (P : Protocol.PROTOCOL) = struct
  module C = Cluster.Make (P)

  let total_io c =
    let sum = ref 0 in
    for i = 0 to Net.num_nodes (C.net c) - 1 do
      sum := !sum + Net.bytes_sent (C.net c) i
    done;
    !sum

  (* One normal-execution run: decided/s, the client-visible latency
     percentiles (warmup samples discarded) and the network volume. The
     client retry fuse is generous: under full connectivity a retry would
     only duplicate a slow pipeline's load. *)
  let throughput_sample cfg ~wan ~cp ~warmup_ms ~duration_ms =
    let c = C.create cfg in
    if wan then apply_wan_latencies (C.net c) ~n:cfg.Cluster.n;
    let client =
      C.start_client ~retry_ms:(20.0 *. cfg.Cluster.election_timeout_ms) c ~cp
    in
    Net.schedule (C.net c) ~delay:warmup_ms (fun () ->
        Client.reset_latency client);
    C.run_ms c (warmup_ms +. duration_ms);
    Client.stop client;
    let series = Client.series client in
    let decided =
      Metrics.Series.total_between series ~from:warmup_ms
        ~until:(warmup_ms +. duration_ms)
    in
    let lat = Client.latency client in
    {
      rs_rate = float_of_int decided /. (duration_ms /. 1000.0);
      rs_p50_ms = Obs.Metric.Histogram.percentile lat ~p:50.0;
      rs_p99_ms = Obs.Metric.Histogram.percentile lat ~p:99.0;
      rs_io_bytes = total_io c;
      rs_msgs = Net.messages_delivered (C.net c);
    }

  (* The same run, as decided/s and total IO bytes. *)
  let throughput cfg ~wan ~cp ~warmup_ms ~duration_ms =
    let s = throughput_sample cfg ~wan ~cp ~warmup_ms ~duration_ms in
    (s.rs_rate, s.rs_io_bytes)

  (* One partial-connectivity run; returns (down-time ms, decided during the
     partition, leader changes). *)
  let partition cfg ~kind ~partition_ms ~cp =
    let c = C.create cfg in
    let timeout = cfg.Cluster.election_timeout_ms in
    let warmup = Float.max 1000.0 (20.0 *. timeout) in
    let client = C.start_client c ~cp in
    (* For the constrained scenario the QC server must lag: cut its link to
       the leader half a timeout before the full partition. *)
    let pre_cut = warmup -. (timeout /. 2.0) in
    let picked = ref None in
    (match kind with
    | Constrained ->
        Net.schedule (C.net c) ~delay:pre_cut (fun () ->
            match C.leader c with
            | Some leader ->
                let qc = if leader = 0 then 1 else 0 in
                picked := Some (qc, leader);
                Net.set_link (C.net c) qc leader false
            | None -> ())
    | Quorum_loss | Chained -> ());
    Net.schedule (C.net c) ~delay:warmup (fun () ->
        match kind with
        | Quorum_loss ->
            let leader = Option.value (C.leader c) ~default:0 in
            let hub = if leader = 0 then 1 else 0 in
            Scenario.quorum_loss (C.net c) ~hub
        | Constrained -> (
            match !picked with
            | Some (qc, leader) -> Scenario.constrained (C.net c) ~qc ~leader
            | None -> ())
        | Chained ->
            Scenario.chain_from (C.net c)
              ~leader:(Option.value (C.leader c) ~default:0));
    Net.schedule (C.net c) ~delay:(warmup +. partition_ms) (fun () ->
        Scenario.heal (C.net c));
    C.run_ms c (warmup +. partition_ms +. (10.0 *. timeout));
    Client.stop client;
    let series = Client.series client in
    let downtime =
      Metrics.Series.longest_gap series ~from:warmup
        ~until:(warmup +. partition_ms)
    in
    let decided =
      Metrics.Series.total_between series ~from:warmup
        ~until:(warmup +. partition_ms)
    in
    (downtime, decided, Client.leader_changes client)

  (* Lagging-follower repair cost (the compaction bench): crash a follower,
     decide [entries] more commands without it, stop the workload, recover
     it and measure how long and how many delivered bytes it takes to reach
     the frontier again. With compaction on the repair is a snapshot
     install (O(state) bytes); with it off the whole missed suffix is
     re-shipped entry by entry (O(log) bytes). *)
  let catch_up cfg ~cp ~entries =
    let c = C.create cfg in
    let timeout = cfg.Cluster.election_timeout_ms in
    let client = C.start_client c ~cp in
    C.run_ms c (8.0 *. timeout);
    let leader = Option.value (C.leader c) ~default:0 in
    let follower = (leader + 1) mod cfg.Cluster.n in
    C.crash c follower;
    let base = P.decided_index (C.node c follower) in
    let target = base + entries in
    let fuel = ref 4_000 in
    while P.decided_index (C.node c leader) < target && !fuel > 0 do
      decr fuel;
      C.run_ms c 20.0
    done;
    Client.stop client;
    (* Drain in-flight proposals so the frontier is fixed before the
       follower comes back: the catch-up window then measures repair
       traffic only, not fresh replication. *)
    C.run_ms c (4.0 *. timeout);
    let frontier = P.decided_index (C.node c leader) in
    let t0 = C.now c in
    let b0 = Net.bytes_delivered_at (C.net c) follower in
    C.recover c follower;
    let fuel = ref 4_000 in
    while P.decided_index (C.node c follower) < frontier && !fuel > 0 do
      decr fuel;
      C.run_ms c (timeout /. 5.0)
    done;
    {
      cu_lag = frontier - base;
      cu_ms = C.now c -. t0;
      cu_bytes = Net.bytes_delivered_at (C.net c) follower - b0;
      cu_caught = P.decided_index (C.node c follower) >= frontier;
      cu_installed = Option.is_some (P.last_install (C.node c follower));
    }
end

(* The protocol set of the evaluation. Each experiment applies [Run] to the
   protocols it is given. *)
let all_protocols = Protocols.[ omni; raft; raft_pvcq; vr; multipaxos ]

(* BLE's analytical IO volume: one request and one reply per peer pair per
   heartbeat round (§7.1's overhead claim). *)
let ble_io_bytes ~n ~duration_ms ~timeout_ms =
  let rounds = duration_ms /. timeout_ms in
  rounds *. float_of_int (n * (n - 1) * (12 + 29))

(** Figure 7: regular execution. *)
let normal_execution ?(protocols = Protocols.[ omni; raft; multipaxos ])
    ?(seeds = [ 1; 2; 3 ]) ?(duration_ms = 4000.0) ?(warmup_ms = 2000.0)
    ?(egress_bw = 20_000.0) ?(cps = [ 500; 5000; 50_000 ])
    ?(cluster_sizes = [ 3; 5 ]) ?(settings = [ false; true ]) () =
  List.concat_map
    (fun wan ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun cp ->
              List.map
                (fun (module P : Protocol.PROTOCOL) ->
                  let module R = Run (P) in
                  let timeout = if wan then 1000.0 else 50.0 in
                  (* Elections (and the client finding the leader) take a
                     few timeouts, so the warmup scales with the timeout. *)
                  let warmup_ms = Float.max warmup_ms (8.0 *. timeout) in
                  let samples =
                    List.map
                      (fun seed ->
                        let cfg =
                          {
                            Cluster.default_config with
                            n;
                            seed;
                            egress_bw;
                            election_timeout_ms = timeout;
                          }
                        in
                        R.throughput cfg ~wan ~cp ~warmup_ms ~duration_ms)
                      seeds
                  in
                  let rates = List.map fst samples in
                  let io = List.map snd samples in
                  let mean, ci = Metrics.Stats.mean_ci rates in
                  let avg_io =
                    List.fold_left ( + ) 0 io / List.length io
                  in
                  let ble_pct =
                    if P.name = Omni_adapter.name && avg_io > 0 then
                      100.0
                      *. ble_io_bytes ~n
                           ~duration_ms:(warmup_ms +. duration_ms)
                           ~timeout_ms:timeout
                      /. float_of_int avg_io
                    else 0.0
                  in
                  {
                    tp_protocol = P.name;
                    tp_n = n;
                    tp_setting = (if wan then "WAN" else "LAN");
                    tp_cp = cp;
                    tp_mean = mean;
                    tp_ci = ci;
                    tp_ble_io_pct = ble_pct;
                  })
                protocols)
            cps)
        cluster_sizes)
    settings

(** Figures 8a and 8b: down-time under the quorum-loss and constrained
    election scenarios. *)
let partition_downtime ?(protocols = all_protocols) ?(seeds = [ 1; 2; 3 ])
    ?(timeouts_ms = [ 50.0; 500.0; 5000.0 ]) ?(partition_ms = 60_000.0)
    ?(cp = 200) ~kind () =
  List.concat_map
    (fun timeout_ms ->
      List.map
        (fun (module P : Protocol.PROTOCOL) ->
          let module R = Run (P) in
          let samples =
            List.map
              (fun seed ->
                let cfg =
                  {
                    Cluster.default_config with
                    n = 5;
                    seed;
                    election_timeout_ms = timeout_ms;
                    tick_ms = Float.max 1.0 (timeout_ms /. 10.0);
                  }
                in
                R.partition cfg ~kind ~partition_ms ~cp)
              seeds
          in
          let downs = List.map (fun (d, _, _) -> d) samples in
          let changes = List.map (fun (_, _, c) -> float_of_int c) samples in
          let mean, ci = Metrics.Stats.mean_ci downs in
          {
            dt_protocol = P.name;
            dt_timeout_ms = timeout_ms;
            dt_downtime_ms = mean;
            dt_ci = ci;
            dt_deadlocked = mean >= 0.95 *. partition_ms;
            dt_leader_changes = Metrics.Stats.mean changes;
          })
        protocols)
    timeouts_ms

(** Figure 8c: decided requests during the chained scenario. *)
let chained_throughput ?(protocols = all_protocols) ?(seeds = [ 1; 2 ])
    ?(durations_ms = [ 30_000.0; 60_000.0; 120_000.0 ]) ?(timeout_ms = 50.0)
    ?(cp = 200) () =
  List.concat_map
    (fun duration_ms ->
      List.map
        (fun (module P : Protocol.PROTOCOL) ->
          let module R = Run (P) in
          let samples =
            List.map
              (fun seed ->
                let cfg =
                  {
                    Cluster.default_config with
                    n = 3;
                    seed;
                    election_timeout_ms = timeout_ms;
                  }
                in
                R.partition cfg ~kind:Chained ~partition_ms:duration_ms
                  ~cp)
              seeds
          in
          let decided = List.map (fun (_, d, _) -> float_of_int d) samples in
          let changes = List.map (fun (_, _, c) -> float_of_int c) samples in
          let mean, ci = Metrics.Stats.mean_ci decided in
          {
            ch_protocol = P.name;
            ch_duration_ms = duration_ms;
            ch_decided = mean;
            ch_ci = ci;
            ch_leader_changes = Metrics.Stats.mean changes;
          })
        protocols)
    durations_ms

(** Figure 9: reconfiguration. Returns (omni, raft) results. The [cp]
    values are scaled 10x down from the paper's (500 ~ paper's 5k,
    5000 ~ paper's 50k) to match the scaled-down egress bandwidth. *)
let reconfiguration ?(seed = 7) ?(preload = 1_000_000) ?(cp = 500)
    ?(egress_bw = 1000.0) ?(replace_majority = false) ?(total_ms = 90_000.0)
    ?(reconfigure_at = 20_000.0) () =
  let new_nodes =
    if replace_majority then [ 0; 1; 5; 6; 7 ] else [ 0; 1; 2; 3; 5 ]
  in
  let params =
    {
      Reconfig.net_cfg =
        {
          Cluster.default_config with
          n = 8;
          seed;
          egress_bw;
          election_timeout_ms = 250.0;
        };
      old_nodes = [ 0; 1; 2; 3; 4 ];
      new_nodes;
      preload;
      cp;
      reconfigure_at;
      total_ms;
      segment_entries = 25_000;
      faults = [];
    }
  in
  let omni = Reconfig.Omni.run params in
  let raft = Reconfig.Raft_runner.run params in
  (params, omni, raft)

(** Table 1: the partial-connectivity matrix, derived from actual runs. *)
type table1_row = {
  t1_protocol : string;
  t1_quorum_loss : bool;  (** stable progress *)
  t1_constrained : bool;
  t1_chained : bool;
}

let table1 ?(seeds = [ 1; 2 ]) ?(partition_ms = 30_000.0) ?(cp = 50) () =
  let timeout = 50.0 in
  let survives (module P : Protocol.PROTOCOL) kind =
    let module R = Run (P) in
    (* Stable progress: the protocol recovered well before the partition
       healed and — for the chained scenario, run as a 5-server chain with
       no fully-connected server — sustained near-baseline throughput
       (a livelock of repeated leader changes shows up as a large deficit
       even though some entries are decided between elections). *)
    List.for_all
      (fun seed ->
        let cfg =
          {
            Cluster.default_config with
            n = 5;
            seed;
            election_timeout_ms = timeout;
          }
        in
        let downtime, decided, _ =
          R.partition cfg ~kind ~partition_ms ~cp
        in
        downtime < 0.5 *. partition_ms
        &&
        if (match kind with Chained -> true | Quorum_loss | Constrained -> false)
        then begin
          let baseline_rate, _ =
            R.throughput cfg ~wan:false ~cp ~warmup_ms:1000.0
              ~duration_ms:2000.0
          in
          float_of_int decided
          >= 0.6 *. baseline_rate *. (partition_ms /. 1000.0)
        end
        else true)
      seeds
  in
  List.map
    (fun pr ->
      {
        t1_protocol = Protocols.name pr;
        t1_quorum_loss = survives pr Quorum_loss;
        t1_constrained = survives pr Constrained;
        t1_chained = survives pr Chained;
      })
    all_protocols

(* ------------------------------------------------------------------ *)
(* Traced runs (the [opx trace] subcommand)                            *)
(* ------------------------------------------------------------------ *)

type traced_run = {
  tr_kind : scenario_kind;
  tr_events : Obs.Event.t list;
  tr_dropped : int;  (* ring-overflow losses during recording *)
  tr_dropped_by_kind : (string * int) list;  (* the losses per event kind *)
  tr_downtime_ms : float;
  tr_decided : int;
}

(** One recorded partial-connectivity run per scenario: the run executes
    with the tracer enabled into an in-memory ring and returns the full
    event stream alongside the usual outcome numbers. *)
let traced_scenarios ?(protocol = Protocols.omni) ?(seed = 1) ?(n = 5)
    ?(timeout_ms = 50.0) ?(partition_ms = 5_000.0) ?(cp = 50) () =
  let module P = (val protocol : Protocol.PROTOCOL) in
  let module R = Run (P) in
  List.map
    (fun kind ->
      let cfg =
        {
          Cluster.default_config with
          n;
          seed;
          election_timeout_ms = timeout_ms;
        }
      in
      let (downtime, decided, _), recording =
        Obs.Trace.with_recording (fun () ->
            R.partition cfg ~kind ~partition_ms ~cp)
      in
      {
        tr_kind = kind;
        tr_events = recording.Obs.Trace.events;
        tr_dropped = recording.Obs.Trace.dropped;
        tr_dropped_by_kind = recording.Obs.Trace.dropped_by_kind;
        tr_downtime_ms = downtime;
        tr_decided = decided;
      })
    [ Quorum_loss; Constrained; Chained ]

(* ------------------------------------------------------------------ *)
(* Recovery latency (health-monitor methodology; EXPERIMENTS.md)       *)
(* ------------------------------------------------------------------ *)

type recovery_point = {
  rl_protocol : string;
  rl_timeout_ms : float;
  rl_detect_ms : float option;
      (** fault to the first leadership reaction anywhere in the cluster
          (ballot increment, prepare round, or an observed leader change) *)
  rl_first_decide_ms : float option;
      (** health monitor: fault to the first post-fault advance of the
          cluster-wide decided index *)
  rl_reelect_ms : float option;
      (** fault to the first decide under a ballot other than the pre-fault
          leader's — the moment the cluster has re-elected and resumed
          deciding under the new leader *)
  rl_stall_ms : float;
      (** longest gap between advances of the cluster-wide decided index
          during the partition (from the trace's [Decided] events) — the
          protocol-level re-election stall, free of client poll/retry
          quantisation *)
  rl_stall_timeouts : float;  (** [rl_stall_ms] in election timeouts *)
  rl_within_4 : bool;
      (** the paper's yardstick: recovered within 4 election timeouts of
          the fault — re-elected and deciding ([rl_reelect_ms]) in time,
          or never stalled longer than that (no re-election needed) *)
  rl_leader_changes : int;
}

(* Longest gap between consecutive advances of the global decided index
   within [\[from_, until_\]]; advances outside the window only move the
   baseline. The tail gap (last advance to [until_]) counts, so a
   deadlocked run scores the whole window. *)
let decided_stall_ms events ~from_ ~until_ =
  let last = ref from_ and best = ref 0.0 and max_idx = ref (-1) in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e.kind with
      | Obs.Event.Decided { decided_idx; _ } when decided_idx > !max_idx ->
          max_idx := decided_idx;
          if e.time >= from_ && e.time <= until_ then begin
            best := Float.max !best (e.time -. !last);
            last := e.time
          end
      | _ [@lint.allow "D4"] -> ())
    events;
  Float.max !best (until_ -. !last)

(** Fault-to-recovery latency in the chained scenario, per protocol: record
    a run, replay its event stream through the online health monitor for
    the fault-to-first-decide episode, scan it for the first leadership
    reaction after the cut, and take the longest decided-advance gap as the
    re-election stall. One seeded run per protocol — the recording is the
    measurement, so the numbers are deterministic and regression-gated
    (bench section "recovery"). *)
let recovery_latency ?(protocols = all_protocols) ?(seed = 1)
    ?(timeout_ms = 50.0) ?(partition_ms = 2_000.0) ?(cp = 50) () =
  List.map
    (fun (module P : Protocol.PROTOCOL) ->
      let module R = Run (P) in
      let cfg =
        {
          Cluster.default_config with
          n = 3;
          seed;
          election_timeout_ms = timeout_ms;
        }
      in
      let (_client_gap_ms, _decided, leader_changes), recording =
        Obs.Trace.with_recording (fun () ->
            R.partition cfg ~kind:Chained ~partition_ms ~cp)
      in
      let events = recording.Obs.Trace.events in
      let fault_at =
        List.find_map
          (fun (e : Obs.Event.t) ->
            match e.kind with
            | Obs.Event.Link_cut _ | Obs.Event.Crashed -> Some e.time
            | _ [@lint.allow "D4"] -> None)
          events
      in
      let detect_ms =
        match fault_at with
        | None -> None
        | Some f ->
            List.find_map
              (fun (e : Obs.Event.t) ->
                if e.time <= f then None
                else
                  match e.kind with
                  | Obs.Event.Ballot_increment _ | Obs.Event.Prepare_round _
                  | Obs.Event.Leader_elected _ | Obs.Event.Leader_changed _
                    ->
                      Some (e.time -. f)
                  | _ [@lint.allow "D4"] -> None)
              events
      in
      let monitor =
        Obs.Health.run
          (Obs.Health.default_config ~n:cfg.Cluster.n
             ~election_timeout_ms:timeout_ms)
          events
      in
      let first_decide_ms =
        match Obs.Health.recoveries monitor with
        | r :: _ -> Obs.Health.recovery_latency r
        | [] -> None
      in
      let stall_ms =
        match fault_at with
        | Some f -> decided_stall_ms events ~from_:f ~until_:(f +. partition_ms)
        | None -> partition_ms
      in
      let ballot_equal (a : Obs.Event.ballot) (b : Obs.Event.ballot) =
        a.Obs.Event.n = b.Obs.Event.n
        && a.Obs.Event.prio = b.Obs.Event.prio
        && a.Obs.Event.pid = b.Obs.Event.pid
      in
      let reelect_ms =
        match fault_at with
        | None -> None
        | Some f ->
            (* Ballot in force when the fault hit: the last decide before
               it. A decide under any other ballot afterwards means a new
               leader won Prepare and is deciding. *)
            let pre =
              List.fold_left
                (fun acc (e : Obs.Event.t) ->
                  match e.kind with
                  | Obs.Event.Decided { b; _ } when e.time <= f -> Some b
                  | _ [@lint.allow "D4"] -> acc)
                None events
            in
            List.find_map
              (fun (e : Obs.Event.t) ->
                if e.time <= f then None
                else
                  match e.kind with
                  | Obs.Event.Decided { b; _ }
                    when not
                           (match pre with
                           | Some p -> ballot_equal p b
                           | None -> false) ->
                      Some (e.time -. f)
                  | _ [@lint.allow "D4"] -> None)
              events
      in
      {
        rl_protocol = P.name;
        rl_timeout_ms = timeout_ms;
        rl_detect_ms = detect_ms;
        rl_first_decide_ms = first_decide_ms;
        rl_reelect_ms = reelect_ms;
        rl_stall_ms = stall_ms;
        rl_stall_timeouts = stall_ms /. timeout_ms;
        rl_within_4 =
          (match reelect_ms with
          | Some v -> v <= 4.0 *. timeout_ms
          | None -> stall_ms <= 4.0 *. timeout_ms);
        rl_leader_changes = leader_changes;
      })
    protocols

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices called out in DESIGN.md             *)
(* ------------------------------------------------------------------ *)

(** Ablation: the QC flag in heartbeats. Without it the quorum-loss
    scenario must deadlock (Table 1's "QC status heartbeats" column). *)
let ablation_qc_signal ?(seeds = [ 1; 2 ]) ?(timeout_ms = 50.0)
    ?(partition_ms = 20_000.0) ?(cp = 50) () =
  partition_downtime
    ~protocols:[ Protocols.omni; (module Omni_adapter.No_qc_signal) ]
    ~seeds ~timeouts_ms:[ timeout_ms ] ~partition_ms ~cp ~kind:Quorum_loss ()

(** Fixed vs adaptive flush policy across the protocol set, Figure-7-style
    LAN setup (same seeds for both policies, so rows are directly
    comparable). Under load the adaptive policy's size-triggered flush cuts
    the replication latency from O(tick) to O(RTT), which with a closed
    loop lifts throughput; ack coalescing trades a little decide latency
    for fewer follower->leader messages. *)
let batching_comparison
    ?(protocols = Protocols.[ omni; raft; multipaxos; vr ])
    ?(policies = [ Omnipaxos.Batching.fixed; Omnipaxos.Batching.adaptive ])
    ?(seeds = [ 1; 2; 3 ]) ?(cp = 5000) ?(warmup_ms = 1000.0)
    ?(duration_ms = 3000.0) ?(egress_bw = 20_000.0) () =
  List.concat_map
    (fun (module P : Protocol.PROTOCOL) ->
      let module R = Run (P) in
      List.map
        (fun policy ->
          let samples =
            List.map
              (fun seed ->
                let cfg =
                  {
                    Cluster.default_config with
                    n = 3;
                    seed;
                    egress_bw;
                    batching = policy;
                  }
                in
                R.throughput_sample cfg ~wan:false ~cp ~warmup_ms ~duration_ms)
              seeds
          in
          let mean_of f = Metrics.Stats.mean (List.map f samples) in
          let rate_mean, rate_ci =
            Metrics.Stats.mean_ci (List.map (fun s -> s.rs_rate) samples)
          in
          {
            bp_protocol = P.name;
            bp_policy = Omnipaxos.Batching.name policy;
            bp_cp = cp;
            bp_rate_mean = rate_mean;
            bp_rate_ci = rate_ci;
            bp_p50_ms = mean_of (fun s -> s.rs_p50_ms);
            bp_p99_ms = mean_of (fun s -> s.rs_p99_ms);
            bp_io_bytes =
              int_of_float
                (mean_of (fun s -> float_of_int s.rs_io_bytes));
            bp_msgs =
              int_of_float (mean_of (fun s -> float_of_int s.rs_msgs));
          })
        policies)
    protocols

(** Ablation: the leader's batch-flush cadence (the driver tick). Larger
    batches amortise headers but add decide latency; with a fixed number of
    concurrent proposals the latency bounds throughput. Returns
    (tick_ms, decided/s, approx latency ms) rows. *)
let ablation_batching ?(batching = Omnipaxos.Batching.fixed)
    ?(ticks_ms = [ 1.0; 5.0; 20.0 ]) ?(cp = 5000) ?(seed = 1)
    ?(duration_ms = 3000.0) () =
  List.map
    (fun tick_ms ->
      let cfg =
        {
          Cluster.default_config with
          n = 3;
          seed;
          tick_ms;
          egress_bw = 10_000.0;
          election_timeout_ms = Float.max 50.0 (10.0 *. tick_ms);
          batching;
        }
      in
      let rate, _ =
        let module R = Run (Omni_adapter) in
        R.throughput cfg ~wan:false ~cp ~warmup_ms:1000.0
          ~duration_ms
      in
      let latency_ms = if rate > 0.0 then float_of_int cp /. rate *. 1000.0 else nan in
      (tick_ms, rate, latency_ms))
    ticks_ms

(** Ablation: migration segment size for the parallel log migration.
    Returns (segment_entries, migration duration ms) rows. *)
let ablation_segments ?(sizes = [ 2_000; 10_000; 50_000 ]) ?(seed = 5)
    ?(preload = 200_000) () =
  List.map
    (fun segment_entries ->
      let params =
        {
          Reconfig.net_cfg =
            {
              Cluster.default_config with
              n = 8;
              seed;
              egress_bw = 2_000.0;
              election_timeout_ms = 50.0;
            };
          old_nodes = [ 0; 1; 2; 3; 4 ];
          new_nodes = [ 0; 1; 2; 3; 5 ];
          preload;
          cp = 100;
          reconfigure_at = 2_000.0;
          total_ms = 30_000.0;
          segment_entries;
          faults = [];
        }
      in
      let r = Reconfig.Omni.run params in
      let duration =
        match r.Reconfig.migration_done_at with
        | Some t -> t -. params.reconfigure_at
        | None -> nan
      in
      (segment_entries, duration))
    sizes

(** The compaction bench: lagging-follower repair cost with and without
    snapshotting, per protocol. Each row crashes a follower, decides
    [entries] more commands without it, recovers it and reports the
    catch-up latency and the bytes shipped to it — O(state) when the
    snapshot-install path repairs it, O(log) when the whole missed suffix
    is replayed entry by entry. *)
let compaction_catch_up
    ?(protocols =
      Protocols.[ omni; raft; multipaxos; vr ])
    ?(seed = 3) ?(entries = 10_000) ?(interval = 500) ?(retain = 64)
    ?(cp = 256) () =
  List.concat_map
    (fun (module P : Protocol.PROTOCOL) ->
      let module R = Run (P) in
      List.map
        (fun compaction_on ->
          let cfg =
            {
              Cluster.default_config with
              n = 3;
              seed;
              compaction =
                (if compaction_on then
                   Omnipaxos.Compaction.make ~retain interval
                 else Omnipaxos.Compaction.disabled);
            }
          in
          (P.name, compaction_on, R.catch_up cfg ~cp ~entries))
        [ false; true ])
    protocols
