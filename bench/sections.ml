(* The benchmark sections, shared by bench/main.ml (human-readable output
   plus BENCH_<section>.json files) and bench/determinism_check.ml (which
   runs sections twice and compares the rendered JSON byte-for-byte).

   Each section runs full simulated clusters and returns the machine-
   readable report envelope; [print] selects whether the human-readable
   tables also go to stdout. Everything in the JSON is a pure function of
   the simulation results (no wall-clock, no filesystem state), which is
   what makes the double-run comparison meaningful. The exceptions are
   wall-clock fields, whose names end in _ci so the compare gate ignores
   them: the determinism check blanks the rates among them (names ending
   in _per_s_ci), and does not double-run trace_scale. *)

module E = Rsm.Experiments
module J = Bench_report.Json

let say print fmt =
  if print then Printf.printf fmt else Printf.ifprintf stdout fmt

let header print title =
  say print "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let mark b = if b then "yes" else "NO "

let envelope ~section ~seeds ~quick ~rows =
  Bench_report.Report.envelope ~section ~seeds ~quick ~rows

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let run_table1 ~quick ~print =
  header print
    "Table 1: stable progress under partial-connectivity scenarios\n\
     (paper: Omni-Paxos is the only protocol that survives all three)";
  let seeds = if quick then [ 1 ] else [ 1; 2 ] in
  let partition_ms = if quick then 15_000.0 else 30_000.0 in
  let rows = E.table1 ~seeds ~partition_ms () in
  say print "%-14s %-12s %-12s %-8s\n" "protocol" "quorum-loss" "constrained"
    "chained";
  List.iter
    (fun (r : E.table1_row) ->
      say print "%-14s %-12s %-12s %-8s\n" r.t1_protocol
        (mark r.t1_quorum_loss) (mark r.t1_constrained) (mark r.t1_chained))
    rows;
  let json_rows =
    List.map
      (fun (r : E.table1_row) ->
        J.Obj
          [
            ("protocol", J.String r.t1_protocol);
            ("quorum_loss", J.Bool r.t1_quorum_loss);
            ("constrained", J.Bool r.t1_constrained);
            ("chained", J.Bool r.t1_chained);
          ])
      rows
  in
  envelope ~section:"table1" ~seeds ~quick ~rows:(J.List json_rows)

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let run_fig7 ~quick ~print =
  header print
    "Figure 7: regular execution throughput (decided req/s, mean +/- 95% CI)\n\
     (paper: Omni-Paxos, Raft and Multi-Paxos perform similarly; BLE\n\
     heartbeat overhead is negligible)";
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let duration_ms = if quick then 2000.0 else 3000.0 in
  let warmup_ms = 1500.0 in
  let cps = if quick then [ 500; 5000 ] else [ 500; 5000; 50_000 ] in
  let rows =
    E.normal_execution ~seeds ~duration_ms ~warmup_ms ~egress_bw:10_000.0 ~cps
      ()
  in
  say print "%-4s %-3s %-7s %-14s %12s %10s %10s\n" "set" "n" "CP" "protocol"
    "tput(req/s)" "+/-CI" "BLE IO%";
  List.iter
    (fun (r : E.throughput_point) ->
      say print "%-4s %-3d %-7d %-14s %12.0f %10.0f %10s\n" r.tp_setting
        r.tp_n r.tp_cp r.tp_protocol r.tp_mean r.tp_ci
        (if String.equal r.tp_protocol "Omni-Paxos" then
           Printf.sprintf "%.4f" r.tp_ble_io_pct
         else "-"))
    rows;
  let json_rows =
    List.map
      (fun (r : E.throughput_point) ->
        J.Obj
          [
            ("setting", J.String r.tp_setting);
            ("n", J.Int r.tp_n);
            ("cp", J.Int r.tp_cp);
            ("protocol", J.String r.tp_protocol);
            ("mean_rate", J.float r.tp_mean);
            ("rate_ci", J.float r.tp_ci);
            ("ble_io_pct", J.float r.tp_ble_io_pct);
          ])
      rows
  in
  envelope ~section:"fig7" ~seeds ~quick ~rows:(J.List json_rows)

(* ------------------------------------------------------------------ *)
(* Figures 8a / 8b                                                     *)
(* ------------------------------------------------------------------ *)

let run_downtime ~section ~kind ~title ~quick ~print =
  header print title;
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let timeouts_ms =
    if quick then [ 50.0; 500.0 ] else [ 50.0; 500.0; 5000.0 ]
  in
  let partition_ms = if quick then 20_000.0 else 60_000.0 in
  let rows =
    E.partition_downtime ~seeds ~timeouts_ms ~partition_ms ~cp:50 ~kind ()
  in
  say print "%-11s %-14s %14s %10s %10s %10s\n" "timeout(ms)" "protocol"
    "downtime(ms)" "+/-CI" "in-t/o" "ldr-chg";
  List.iter
    (fun (r : E.downtime_point) ->
      say print "%-11.0f %-14s %14s %10.0f %10s %10.1f\n" r.dt_timeout_ms
        r.dt_protocol
        (if r.dt_deadlocked then "DEADLOCK"
         else Printf.sprintf "%.0f" r.dt_downtime_ms)
        r.dt_ci
        (if r.dt_deadlocked then "-"
         else Printf.sprintf "%.1f" (r.dt_downtime_ms /. r.dt_timeout_ms))
        r.dt_leader_changes)
    rows;
  let json_rows =
    List.map
      (fun (r : E.downtime_point) ->
        J.Obj
          [
            ("timeout_ms", J.float r.dt_timeout_ms);
            ("protocol", J.String r.dt_protocol);
            ("downtime_ms", J.float r.dt_downtime_ms);
            ("downtime_ci", J.float r.dt_ci);
            ("deadlocked", J.Bool r.dt_deadlocked);
            ("leader_changes_count", J.float r.dt_leader_changes);
          ])
      rows
  in
  envelope ~section ~seeds ~quick ~rows:(J.List json_rows)

(* ------------------------------------------------------------------ *)
(* Figure 8c                                                           *)
(* ------------------------------------------------------------------ *)

let run_fig8c ~quick ~print =
  header print
    "Figure 8c: decided requests during the chained scenario\n\
     (paper: Multi-Paxos livelocks with repeated leader changes and decides\n\
     the least; the others converge after at most a couple of changes)";
  let seeds = if quick then [ 1 ] else [ 1; 2 ] in
  let durations_ms =
    if quick then [ 15_000.0; 30_000.0 ] else [ 30_000.0; 60_000.0; 120_000.0 ]
  in
  let rows = E.chained_throughput ~seeds ~durations_ms ~cp:50 () in
  say print "%-13s %-14s %14s %10s %10s\n" "duration(s)" "protocol" "decided"
    "+/-CI" "ldr-chg";
  List.iter
    (fun (r : E.chained_point) ->
      say print "%-13.0f %-14s %14.0f %10.0f %10.1f\n"
        (r.ch_duration_ms /. 1000.0)
        r.ch_protocol r.ch_decided r.ch_ci r.ch_leader_changes)
    rows;
  let json_rows =
    List.map
      (fun (r : E.chained_point) ->
        J.Obj
          [
            ("duration_ms", J.float r.ch_duration_ms);
            ("protocol", J.String r.ch_protocol);
            ("decided_count", J.float r.ch_decided);
            ("decided_ci", J.float r.ch_ci);
            ("leader_changes_count", J.float r.ch_leader_changes);
          ])
      rows
  in
  envelope ~section:"fig8c" ~seeds ~quick ~rows:(J.List json_rows)

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)
(* ------------------------------------------------------------------ *)

let reconfig_json (p : Rsm.Reconfig.params) (r : Rsm.Reconfig.result) =
  let opt_ms = function Some t -> J.float t | None -> J.Null in
  J.Obj
    [
      ("committed_at_ms", opt_ms r.reconfig_committed_at);
      ("migration_done_at_ms", opt_ms r.migration_done_at);
      ("leader_changes_count", J.Int r.leader_changes);
      ("peak_window_bytes", J.Int (Rsm.Reconfig.peak_window_bytes r));
      ("busiest_node_bytes", J.Int (Rsm.Reconfig.busiest_node_bytes p r));
      ( "window_rates",
        J.List
          (List.map
             (fun (t, rate) ->
               J.Obj [ ("t_ms", J.float t); ("window_rate", J.float rate) ])
             (Rsm.Reconfig.window_rates p r)) );
    ]

let run_fig9 ~section ~replace_majority ~cp ~title ~quick ~print =
  header print title;
  let preload = if quick then 200_000 else 2_000_000 in
  let total_ms = if quick then 60_000.0 else 120_000.0 in
  let params, omni, raft =
    E.reconfiguration ~preload ~cp ~replace_majority ~total_ms ()
  in
  say print
    "preload: %d entries (8 B each = %.0f MB to migrate per new server)\n\
     egress bandwidth: %.1f MB/s per node; reconfiguration at t=%.0fs\n"
    params.preload
    (float_of_int (params.preload * 8) /. 1.0e6)
    (params.net_cfg.egress_bw /. 1000.0)
    (params.reconfigure_at /. 1000.0);
  if print then
    Format.printf "%a@?" (Rsm.Reconfig.pp_comparison params) (omni, raft);
  let rows =
    J.Obj
      [
        ("preload_count", J.Int preload);
        ("cp", J.Int cp);
        ("replace_majority", J.Bool replace_majority);
        ("omni", reconfig_json params omni);
        ("raft", reconfig_json params raft);
      ]
  in
  envelope ~section ~seeds:[ params.net_cfg.seed ] ~quick ~rows

(* ------------------------------------------------------------------ *)
(* Batching policy comparison (adaptive vs fixed hot-path flushing)    *)
(* ------------------------------------------------------------------ *)

let run_policy ~quick ~print =
  header print
    "Batching policy: fixed tick-driven flush vs adaptive\n\
     (size-triggered eager flush + backlog-aware cap + ack coalescing;\n\
     same seeds for both policies, Figure-7-style LAN setup)";
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let cp = if quick then 2000 else 5000 in
  let duration_ms = if quick then 1500.0 else 3000.0 in
  let rows =
    E.batching_comparison ~seeds ~cp ~warmup_ms:1000.0 ~duration_ms ()
  in
  say print "%-14s %-9s %12s %10s %9s %9s %12s %10s\n" "protocol" "policy"
    "tput(req/s)" "+/-CI" "p50(ms)" "p99(ms)" "IO(bytes)" "msgs";
  List.iter
    (fun (r : E.policy_point) ->
      say print "%-14s %-9s %12.0f %10.0f %9.2f %9.2f %12d %10d\n"
        r.bp_protocol r.bp_policy r.bp_rate_mean r.bp_rate_ci r.bp_p50_ms
        r.bp_p99_ms r.bp_io_bytes r.bp_msgs)
    rows;
  (* Per-protocol adaptive/fixed throughput ratio — the headline number the
     regression gate and the acceptance check look at. *)
  let find proto policy =
    List.find_opt
      (fun (r : E.policy_point) ->
        String.equal r.bp_protocol proto && String.equal r.bp_policy policy)
      rows
  in
  let protos =
    List.filter
      (fun p ->
        (* preserve row order, one entry per protocol *)
        match find p "fixed" with Some _ -> true | None -> false)
      (List.sort_uniq String.compare
         (List.map (fun (r : E.policy_point) -> r.bp_protocol) rows))
  in
  let summary =
    List.filter_map
      (fun proto ->
        match (find proto "fixed", find proto "adaptive") with
        | Some f, Some a when f.bp_rate_mean > 0.0 ->
            let ratio = a.bp_rate_mean /. f.bp_rate_mean in
            say print "%-14s adaptive/fixed throughput ratio: %.2fx\n" proto
              ratio;
            Some
              (J.Obj
                 [
                   ("protocol", J.String proto);
                   ("adaptive_over_fixed_pct", J.float (100.0 *. ratio));
                 ])
        | _ -> None)
      protos
  in
  let json_rows =
    List.map
      (fun (r : E.policy_point) ->
        J.Obj
          [
            ("protocol", J.String r.bp_protocol);
            ("policy", J.String r.bp_policy);
            ("cp", J.Int r.bp_cp);
            ("mean_rate", J.float r.bp_rate_mean);
            ("rate_ci", J.float r.bp_rate_ci);
            ("p50_ms", J.float r.bp_p50_ms);
            ("p99_ms", J.float r.bp_p99_ms);
            ("io_bytes", J.Int r.bp_io_bytes);
            ("delivered_msgs", J.Int r.bp_msgs);
          ])
      rows
  in
  envelope ~section:"policy" ~seeds ~quick
    ~rows:
      (J.Obj [ ("points", J.List json_rows); ("summary", J.List summary) ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let run_ablations ~quick ~print =
  header print
    "Ablations of the design choices DESIGN.md calls out\n\
     (QC heartbeat flag; batch-flush cadence; migration segment size)";
  let seeds = if quick then [ 1 ] else [ 1; 2 ] in
  say print "\n[A] QC flag in heartbeats - quorum-loss downtime with/without:\n";
  say print "%-20s %14s\n" "variant" "downtime";
  let qc_rows = E.ablation_qc_signal ~seeds () in
  List.iter
    (fun (r : E.downtime_point) ->
      say print "%-20s %14s\n" r.dt_protocol
        (if r.dt_deadlocked then "DEADLOCK"
         else Printf.sprintf "%.0f ms" r.dt_downtime_ms))
    qc_rows;
  say print "\n[B] batch-flush cadence (3 servers, CP=5000, 10 MB/s egress):\n";
  say print "%-12s %14s %14s\n" "tick(ms)" "tput(req/s)" "~latency(ms)";
  let cadence_rows = E.ablation_batching () in
  List.iter
    (fun (tick, rate, lat) -> say print "%-12.0f %14.0f %14.1f\n" tick rate lat)
    cadence_rows;
  say print "\n[C] migration segment size (replace 1 of 5, 200k-entry log):\n";
  say print "%-18s %18s\n" "segment(entries)" "migration(ms)";
  let segment_rows = E.ablation_segments () in
  List.iter
    (fun (size, dur) -> say print "%-18d %18.0f\n" size dur)
    segment_rows;
  let rows =
    J.Obj
      [
        ( "qc_signal",
          J.List
            (List.map
               (fun (r : E.downtime_point) ->
                 J.Obj
                   [
                     ("protocol", J.String r.dt_protocol);
                     ("downtime_ms", J.float r.dt_downtime_ms);
                     ("deadlocked", J.Bool r.dt_deadlocked);
                   ])
               qc_rows) );
        ( "flush_cadence",
          J.List
            (List.map
               (fun (tick, rate, lat) ->
                 J.Obj
                   [
                     ("tick_ms", J.float tick);
                     ("mean_rate", J.float rate);
                     ("approx_latency_ms", J.float lat);
                   ])
               cadence_rows) );
        ( "migration_segments",
          J.List
            (List.map
               (fun (size, dur) ->
                 J.Obj
                   [
                     ("segment_entries", J.Int size);
                     ("migration_ms", J.float dur);
                   ])
               segment_rows) );
      ]
  in
  envelope ~section:"ablations" ~seeds ~quick ~rows

(* ------------------------------------------------------------------ *)
(* Recovery latency (health-monitor methodology)                       *)
(* ------------------------------------------------------------------ *)

let run_recovery ~quick ~print =
  header print
    "Recovery latency in the chained scenario (health-monitor methodology)\n\
     (paper: Omni-Paxos re-elects and resumes deciding within ~4 election\n\
     timeouts; see EXPERIMENTS.md for how detect/stall are measured)";
  let seeds = [ 1 ] in
  let timeout_ms = 50.0 in
  let partition_ms = if quick then 2_000.0 else 4_000.0 in
  let rows = E.recovery_latency ~seed:1 ~timeout_ms ~partition_ms () in
  let opt = function
    | Some v -> Printf.sprintf "%.1f" v
    | None -> "-"
  in
  say print "%-14s %11s %15s %12s %10s %10s %7s %8s\n" "protocol"
    "detect(ms)" "1st-decide(ms)" "reelect(ms)" "stall(ms)" "stall/t-o"
    "<=4t/o" "ldr-chg";
  List.iter
    (fun (r : E.recovery_point) ->
      say print "%-14s %11s %15s %12s %10.1f %10.1f %7s %8d\n" r.rl_protocol
        (opt r.rl_detect_ms)
        (opt r.rl_first_decide_ms)
        (opt r.rl_reelect_ms)
        r.rl_stall_ms r.rl_stall_timeouts
        (if r.rl_within_4 then "yes" else "NO")
        r.rl_leader_changes)
    rows;
  let jopt = function Some v -> J.float v | None -> J.Null in
  let json_rows =
    List.map
      (fun (r : E.recovery_point) ->
        J.Obj
          [
            ("protocol", J.String r.rl_protocol);
            ("timeout_ms", J.float r.rl_timeout_ms);
            ("detect_ms", jopt r.rl_detect_ms);
            ("first_decide_ms", jopt r.rl_first_decide_ms);
            ("reelect_ms", jopt r.rl_reelect_ms);
            ("stall_ms", J.float r.rl_stall_ms);
            ("within_4_timeouts", J.Bool r.rl_within_4);
            ("leader_changes_count", J.Int r.rl_leader_changes);
          ])
      rows
  in
  envelope ~section:"recovery" ~seeds ~quick ~rows:(J.List json_rows)

(* ------------------------------------------------------------------ *)
(* Resource attribution profile                                        *)
(* ------------------------------------------------------------------ *)

let run_profile ~quick ~print =
  header print
    "Resource attribution profile (Omni-Paxos, seeded normal run)\n\
     (where dispatch work goes: calls and sim-time per component; the\n\
     wall-clock columns are nondeterministic and excluded from the report)";
  let seeds = [ 1 ] in
  let duration_ms = if quick then 2_000.0 else 4_000.0 in
  let cfg = { Rsm.Cluster.default_config with Rsm.Cluster.n = 5; seed = 1 } in
  let module T = Rsm.Top.Make (Rsm.Omni_adapter) in
  let r = T.run ~cfg ~cp:100 ~duration_ms ~interval_ms:250.0 () in
  let flat = Obs.Profile.flat r.Rsm.Top.profile in
  say print "%-28s %10s %12s\n" "component" "calls" "sim-ms";
  List.iter
    (fun (row : Obs.Profile.row) ->
      say print "%-28s %10d %12.1f\n" row.Obs.Profile.r_label
        row.Obs.Profile.r_calls row.Obs.Profile.r_sim_ms)
    flat;
  (* Sort by label so a tolerated drift in call counts cannot reorder rows
     and break the positional matching of the compare gate. *)
  let by_label =
    List.sort
      (fun (a : Obs.Profile.row) (b : Obs.Profile.row) ->
        String.compare a.Obs.Profile.r_label b.Obs.Profile.r_label)
      flat
  in
  let json_rows =
    List.map
      (fun (row : Obs.Profile.row) ->
        J.Obj
          [
            ("component", J.String row.Obs.Profile.r_label);
            ("calls_count", J.Int row.Obs.Profile.r_calls);
            ("sim_ms", J.float row.Obs.Profile.r_sim_ms);
          ])
      by_label
  in
  envelope ~section:"profile" ~seeds ~quick ~rows:(J.List json_rows)

(* ------------------------------------------------------------------ *)
(* Compaction: lagging-follower repair cost                            *)
(* ------------------------------------------------------------------ *)

let run_compaction ~quick ~print =
  header print
    "Compaction: lagging-follower catch-up, snapshot install vs log replay\n\
     (a follower that missed N decided entries is repaired with O(state)\n\
     bytes when snapshotting is on, O(log) bytes when it is off)";
  let seeds = [ 3 ] in
  let entries = if quick then 2_000 else 10_000 in
  let rows = E.compaction_catch_up ~seed:3 ~entries () in
  say print "%-14s %-10s %8s %12s %12s %7s %10s\n" "protocol" "snapshots"
    "lag" "catchup-ms" "bytes" "caught" "installed";
  List.iter
    (fun (name, on, (p : E.catch_up_point)) ->
      say print "%-14s %-10s %8d %12.1f %12d %7s %10s\n" name
        (if on then "on" else "off")
        p.E.cu_lag p.E.cu_ms p.E.cu_bytes (mark p.E.cu_caught)
        (if p.E.cu_installed then "yes" else "no"))
    rows;
  let json_rows =
    List.map
      (fun (name, on, (p : E.catch_up_point)) ->
        J.Obj
          [
            ("protocol", J.String name);
            ("snapshots", J.Bool on);
            ("lag_entries", J.Int p.E.cu_lag);
            ("catchup_ms", J.float p.E.cu_ms);
            ("catchup_bytes", J.Int p.E.cu_bytes);
            ("caught_up", J.Bool p.E.cu_caught);
            ("snapshot_installed", J.Bool p.E.cu_installed);
          ])
      rows
  in
  envelope ~section:"compaction" ~seeds ~quick ~rows:(J.List json_rows)

(* ------------------------------------------------------------------ *)
(* Trace scale: codec density and streaming-analyzer memory            *)
(* ------------------------------------------------------------------ *)

(* Peak live words of [f], measured against the post-collection floor:
   [Gc.full_major] before and after plus periodic sampling inside (the
   caller invokes [sample] at its own cadence). Heap walks are expensive,
   so the cadence is tens of samples, not per event. *)
let with_peak_live_words f =
  Gc.compact ();
  let floor = (Gc.stat ()).Gc.live_words in
  let peak = ref floor in
  let sample () =
    Gc.full_major ();
    let lw = (Gc.stat ()).Gc.live_words in
    if lw > !peak then peak := lw
  in
  let v = f sample in
  sample ();
  (v, !peak - floor)

let run_trace_scale ~quick ~print =
  header print
    "Trace scale: binary codec density and streaming-analyzer memory bound\n\
     (synthetic open-loop replication trace; gates: bin >= 5x denser than\n\
     JSONL, analyzer memory flat in trace length; the sampled-tracing\n\
     overhead gate is check_overhead.exe sampled)";
  let seed = 1 and nodes = 5 in
  let events = if quick then 100_000 else 1_000_000 in
  let synth n f = Obs.Synth.iter ~nodes ~seed ~events:n f in

  (* Codec density: stream the synthetic trace through both encoders,
     counting bytes without retaining events. Wall-clock encode rates are
     informational (_ci fields, ignored by the baseline compare); byte
     counts and the ratio are deterministic. *)
  let jsonl_bytes = ref 0 in
  let t0 = Sys.time () in
  synth events (fun e ->
      jsonl_bytes := !jsonl_bytes + String.length (Obs.Tracebin.to_json e) + 1);
  let jsonl_s = Sys.time () -. t0 in
  let bin_bytes = ref 0 in
  let t0 = Sys.time () in
  let w =
    Obs.Tracebin.writer
      ~meta:[ ("gen", "synth"); ("seed", string_of_int seed) ]
      (fun s -> bin_bytes := !bin_bytes + String.length s)
  in
  synth events (Obs.Tracebin.write w);
  Obs.Tracebin.flush w;
  let bin_s = Sys.time () -. t0 in
  let ratio = float_of_int !jsonl_bytes /. float_of_int !bin_bytes in
  let compression_ok = ratio >= 5.0 in
  say print "events              : %d\n" events;
  say print "jsonl               : %d bytes (%.1f B/event, %.0f events/s)\n"
    !jsonl_bytes
    (float_of_int !jsonl_bytes /. float_of_int events)
    (float_of_int events /. Float.max jsonl_s 1e-9);
  say print "bin                 : %d bytes (%.1f B/event, %.0f events/s)\n"
    !bin_bytes
    (float_of_int !bin_bytes /. float_of_int events)
    (float_of_int events /. Float.max bin_s 1e-9);
  say print "compression         : %.2fx %s\n" ratio
    (if compression_ok then "(>= 5x: ok)" else "(FAIL: below the 5x gate)");

  (* Streaming analyzer: peak live words at full length vs a fifth of it.
     Bounded state means the peak is flat in trace length (the windows,
     sketches and caps dominate); a superlinear analyzer fails the gate. *)
  let analyze_peak n =
    let (), peak =
      with_peak_live_words (fun sample ->
          let s = Obs.Analyze.Stream.create ~n_hint:nodes () in
          let stride = max 1 (n / 16) in
          let i = ref 0 in
          synth n (fun e ->
              Obs.Analyze.Stream.observe s e;
              incr i;
              if !i mod stride = 0 then sample ());
          ignore (Obs.Analyze.Stream.finish s))
    in
    peak
  in
  let t0 = Sys.time () in
  let peak_full = analyze_peak events in
  let analyze_s = Sys.time () -. t0 in
  let peak_fifth = analyze_peak (events / 5) in
  (* Flat within 2x: the short run may sit below cap-fill, never above. *)
  let bounded_ok = peak_full <= max (2 * peak_fifth) (peak_fifth + 2_000_000) in
  say print "analyzer peak live  : %d words at %d events, %d at %d (%s)\n"
    peak_full events peak_fifth (events / 5)
    (if bounded_ok then "flat: ok" else "FAIL: grows with trace length");
  say print "analyzer throughput : %.0f events/s\n"
    (float_of_int events /. Float.max analyze_s 1e-9);

  let row =
    J.Obj
      [
        ("events_count", J.Int events);
        ("jsonl_bytes", J.Int !jsonl_bytes);
        ("bin_bytes", J.Int !bin_bytes);
        ("compression_ratio_pct", J.float (100.0 *. ratio));
        ("compression_gate_5x", J.Bool compression_ok);
        ("analyzer_peak_live_words_count", J.Int peak_full);
        ("analyzer_peak_live_words_fifth_count", J.Int peak_fifth);
        ("analyzer_memory_bounded", J.Bool bounded_ok);
        (* Wall-clock figures: machine-dependent, excluded from the
           baseline compare via the _ci (ignore) tolerance class. *)
        ( "encode_events_per_s_ci",
          J.float (float_of_int events /. Float.max bin_s 1e-9) );
        ( "analyze_events_per_s_ci",
          J.float (float_of_int events /. Float.max analyze_s 1e-9) );
      ]
  in
  envelope ~section:"trace_scale" ~seeds:[ seed ] ~quick
    ~rows:(J.List [ row ])

(* ------------------------------------------------------------------ *)
(* Simnet scale: simulator work per command as n grows                 *)
(* ------------------------------------------------------------------ *)

(* Omni-Paxos at n = 5 ... 65 on the LAN under a closed loop of 100
   proposals (omni-wide's configuration at every n): simulated events per
   committed command, how many of them the event queue's FIFO lane served
   and how many its heap, and the queue's high-water mark. All of them are
   deterministic and gated exactly; host events per second is a _ci
   field. *)
let run_simnet_scale ~quick ~print =
  header print
    "Simnet scale: events per command, lane and heap pops, queue high-water\n\
     (Omni-Paxos, closed loop cp=100, LAN; counts deterministic and gated\n\
     exactly, host events/s informational)";
  let seed = 1 and cp = 100 in
  let warmup_ms = 500.0 and measure_ms = if quick then 1_000.0 else 4_000.0 in
  say print "%4s %8s %10s %10s %10s %10s %10s %10s\n" "n" "commits" "events"
    "events/cmd" "lane pops" "heap pops" "high-water" "events/s";
  let module C = Rsm.Cluster.Make (Rsm.Omni_adapter) in
  let row n =
    let c =
      C.create
        {
          Rsm.Cluster.default_config with
          Rsm.Cluster.n;
          seed;
          batching = Omnipaxos.Batching.adaptive;
          compaction = Omnipaxos.Compaction.make ~retain:1000 10_000;
        }
    in
    let net = C.net c in
    let client = C.start_client c ~cp in
    C.run_ms c warmup_ms;
    let pops () = (Simnet.Net.heap_stats net).Simnet.Net.hs_pops in
    let decided0 = Rsm.Client.decided client and pops0 = pops () in
    let lane0 = Simnet.Net.lane_pops net in
    let t0 = Sys.time () in
    C.run_ms c measure_ms;
    let host_s = Sys.time () -. t0 in
    let commits = Rsm.Client.decided client - decided0 in
    let events = pops () - pops0 in
    let lane = Simnet.Net.lane_pops net - lane0 in
    let high_water = (Simnet.Net.heap_stats net).Simnet.Net.hs_high_water in
    let per_cmd = float_of_int events /. float_of_int (max 1 commits) in
    let rate = float_of_int events /. Float.max host_s 1e-9 in
    Rsm.Client.stop client;
    say print "%4d %8d %10d %10.2f %10d %10d %10d %10.0f\n" n commits events
      per_cmd lane (events - lane) high_water rate;
    J.Obj
      [
        ("n", J.Int n);
        ("commits", J.Int commits);
        ("events", J.Int events);
        ("events_per_cmd", J.float per_cmd);
        ("lane_pops", J.Int lane);
        ("heap_pops", J.Int (events - lane));
        ("heap_high_water", J.Int high_water);
        ("events_per_s_ci", J.float rate);
      ]
  in
  let rows = List.map row [ 5; 9; 17; 33; 65 ] in
  envelope ~section:"simnet_scale" ~seeds:[ seed ] ~quick ~rows:(J.List rows)

(* ------------------------------------------------------------------ *)
(* Model checking the real Sequence Paxos                              *)
(* ------------------------------------------------------------------ *)

(* The default test suite's configurations, so this row is the budget
   guard of test_mcheck: state and install counts are deterministic and
   gated exactly; states/s is host CPU time, a _ci field the compare gate
   ignores. Quick and full runs are the same. *)
let run_mcheck ~quick ~print =
  header print
    "Model checking the real Sequence Paxos (the test_mcheck configurations;\n\
     states and installs are deterministic, states/s is host CPU time)";
  say print "%-34s %9s %9s %10s %12s\n" "configuration" "states" "installs"
    "exhausted" "states/s";
  let rows =
    List.map
      (fun (name, cfg) ->
        let t0 = Sys.time () in
        let r = Mcheck.Explore.run cfg in
        let rate =
          float_of_int r.Mcheck.Explore.states
          /. Float.max (Sys.time () -. t0) 1e-9
        in
        let exhausted = not r.Mcheck.Explore.truncated in
        let violation = Option.is_some r.Mcheck.Explore.violation in
        say print "%-34s %9d %9d %10s %12.0f%s\n" name r.Mcheck.Explore.states
          r.Mcheck.Explore.installs (mark exhausted) rate
          (if violation then "  VIOLATION" else "");
        J.Obj
          [
            ("config", J.String name);
            ("states", J.Int r.Mcheck.Explore.states);
            ("installs", J.Int r.Mcheck.Explore.installs);
            ("exhausted", J.Bool exhausted);
            ("violation", J.Bool violation);
            ("states_per_s_ci", J.float rate);
          ])
      Mcheck.Explore.default_configs
  in
  envelope ~section:"mcheck" ~seeds:[] ~quick ~rows:(J.List rows)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let all_names =
  [
    "table1"; "fig7"; "fig8a"; "fig8b"; "fig8c"; "fig9a"; "fig9b"; "fig9c";
    "ablations"; "policy"; "recovery"; "profile"; "compaction";
    "trace_scale"; "simnet_scale"; "mcheck";
  ]

let run name ~quick ~print =
  match name with
  | "table1" -> Some (run_table1 ~quick ~print)
  | "fig7" -> Some (run_fig7 ~quick ~print)
  | "fig8a" ->
      Some
        (run_downtime ~section:"fig8a" ~kind:E.Quorum_loss
           ~title:
             "Figure 8a: down-time in the quorum-loss scenario\n\
              (paper: VR and Multi-Paxos deadlock; Raft recovers with high\n\
              variance; Omni-Paxos recovers in ~4 election timeouts)"
           ~quick ~print)
  | "fig8b" ->
      Some
        (run_downtime ~section:"fig8b" ~kind:E.Constrained
           ~title:
             "Figure 8b: down-time in the constrained election scenario\n\
              (paper: VR, Raft and Raft PV+CQ deadlock; Omni-Paxos recovers \
              in\n\
              ~3 timeouts; Multi-Paxos also recovers)"
           ~quick ~print)
  | "fig8c" -> Some (run_fig8c ~quick ~print)
  | "fig9a" ->
      Some
        (run_fig9 ~section:"fig9a" ~replace_majority:false ~cp:500
           ~title:
             "Figure 9a: reconfiguration, replace 1 of 5 servers (CP=500 ~ \
              paper 5k)\n\
              (paper: Raft ~90% throughput drop for ~55s; Omni-Paxos ~20% \
              for ~15s)"
           ~quick ~print)
  | "fig9b" ->
      Some
        (run_fig9 ~section:"fig9b" ~replace_majority:false ~cp:5000
           ~title:
             "Figure 9b: reconfiguration, replace 1 of 5 servers (CP=5000 ~ \
              paper 50k)\n\
              (paper: with a larger pipeline the Omni-Paxos drop is masked)"
           ~quick ~print)
  | "fig9c" ->
      Some
        (run_fig9 ~section:"fig9c" ~replace_majority:true ~cp:500
           ~title:
             "Figure 9c: reconfiguration, replace a majority (3 of 5, \
              CP=500 ~ paper 5k)\n\
              (paper: Raft fully down for up to 40s, 120s to recover; \
              Omni-Paxos\n\
              80% lower throughput for ~15s)"
           ~quick ~print)
  | "ablations" -> Some (run_ablations ~quick ~print)
  | "policy" -> Some (run_policy ~quick ~print)
  | "recovery" -> Some (run_recovery ~quick ~print)
  | "profile" -> Some (run_profile ~quick ~print)
  | "compaction" -> Some (run_compaction ~quick ~print)
  | "trace_scale" -> Some (run_trace_scale ~quick ~print)
  | "simnet_scale" -> Some (run_simnet_scale ~quick ~print)
  | "mcheck" -> Some (run_mcheck ~quick ~print)
  | _ -> None
