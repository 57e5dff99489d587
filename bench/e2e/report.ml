(* Metrics computed from core-run outcomes: the end-to-end set (from the
   plain run) and the per-layer set (from the timed run). *)

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let per a b = if b > 0.0 then a /. b else 0.0

let cpu_frac outs =
  List.fold_left (fun a (o : Runner.outcome) -> Float.min a o.Runner.cpu_frac) 1.0 outs

(* Per core run, then combined across cores: geometric mean, except
   peak heap (max), set-up time (sum) and failures (pooled). *)
let end_to_end (outs : Runner.outcome list) =
  let each f = geomean (List.map f outs) in
  let fl = float_of_int in
  let commits (o : Runner.outcome) = fl o.Runner.commits in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outs in
  let attempted = sum (fun o -> o.Runner.attempted) in
  let failed = sum (fun o -> o.Runner.failed) in
  let peak =
    List.fold_left (fun a (o : Runner.outcome) -> max a o.Runner.peak_heap_words) 0 outs
  in
  let metrics =
    [
      m "host_ns_per_cmd" (each Runner.host_ns_per_cmd) "ns";
      m "alloc_words_per_cmd" (each (fun o -> o.Runner.minor_words /. commits o)) "words";
      m "peak_heap_mb" (fl (peak * (Sys.word_size / 8)) /. 1e6) "MB";
      m "setup_s" (List.fold_left (fun a (o : Runner.outcome) -> a +. o.Runner.setup_s) 0.0 outs) "s";
      m "sim_commits_per_s" (each (fun o -> commits o /. (o.Runner.measure_ms /. 1000.0))) "cmd/sim-s";
      m "sim_p50_ms" (each (fun o -> o.Runner.p50_ms)) "sim-ms";
      m "sim_p999_ms" (each (fun o -> o.Runner.p999_ms)) "sim-ms";
      m "sim_bytes_per_cmd" (each (fun o -> fl o.Runner.bytes /. commits o)) "B";
      m "sim_downtime_ms" (each (fun o -> o.Runner.downtime_ms)) "sim-ms";
    ]
  in
  let extra =
    [
      m "sim_latency_samples" (fl (sum (fun o -> o.Runner.samples))) "count";
      m "failed_pct" (100.0 *. per (fl failed) (fl attempted)) "%";
    ]
  in
  (metrics, extra, attempted, failed)

(* The simulated results a timed run must reproduce exactly. *)
let sim_fingerprint (o : Runner.outcome) =
  Printf.sprintf "commits=%d sim_ms=%h p50=%h p999=%h samples=%d bytes=%d down=%h attempted=%d failed=%d"
    o.Runner.commits o.Runner.measure_ms o.Runner.p50_ms o.Runner.p999_ms
    o.Runner.samples o.Runner.bytes o.Runner.downtime_ms o.Runner.attempted
    o.Runner.failed

(* Raw sums across core runs; high-water marks and percentiles take the
   max. *)
let merge_raw outs =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (o : Runner.outcome) ->
      List.iter
        (fun (k, v) ->
          let prev = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
          let maxed = String.equal k "net.heap_hw" || String.equal k "openloop.lag_p99_ms" in
          Hashtbl.replace tbl k (if maxed then Float.max prev v else prev +. v))
        o.Runner.raw)
    outs;
  fun k -> Option.value (Hashtbl.find_opt tbl k) ~default:0.0

let total_self_ns get =
  let s = ref 0.0 in
  for i = 0 to !Frames.n_sites - 1 do
    s := !s +. get ("site." ^ Frames.names.(i) ^ ".self_ns")
  done;
  !s

let layers get ~single_node_ns ~trace_overhead_pct ~cpu_frac ~wrapper_ns =
  let site nm f = get ("site." ^ nm ^ "." ^ f) in
  let commits = get "commits" in
  let pc x = per x commits in
  let events = get "net.events" in
  let obs_events = get "obs.events" in
  let simnet =
    [
      m "simnet.events_per_cmd" (pc events) "events/cmd";
      m "simnet.deliver_per_cmd" (pc (get "net.deliver")) "events/cmd";
      m "simnet.timer_per_cmd" (pc (get "net.timer")) "events/cmd";
      m "simnet.egress_step_per_cmd" (pc (get "net.egress_step")) "events/cmd";
      m "simnet.heap_high_water" (get "net.heap_hw") "events";
      m "simnet.dispatch_self_ns_per_cmd" (pc (site "simnet.dispatch" "self_ns")) "ns";
      m "simnet.ns_per_event" (per (site "simnet.dispatch" "self_ns") events) "ns";
      m "simnet.send_self_ns_per_cmd" (pc (site "simnet.send" "self_ns")) "ns";
      m "simnet.self_words_per_cmd"
        (pc (site "simnet.dispatch" "self_words" +. site "simnet.send" "self_words"))
        "words";
    ]
  in
  let core c =
    let k = get ("commits." ^ c) in
    let pk x = per x k in
    let fn f =
      let s = c ^ "." ^ f in
      [
        m (s ^ ".calls_per_cmd") (pk (site s "calls")) "calls/cmd";
        m (s ^ ".self_ns_per_cmd") (pk (site s "self_ns")) "ns";
        m (s ^ ".self_words_per_cmd") (pk (site s "self_words")) "words";
      ]
    in
    fn "handle" @ fn "tick" @ fn "propose"
    @ [
        m (c ^ ".session_reset.ns_per_cmd") (pk (site (c ^ ".session_reset") "self_ns")) "ns";
        m (c ^ ".msg_size.calls_per_cmd") (pk (site (c ^ ".msg_size") "calls")) "calls/cmd";
        m (c ^ ".msg_size.ns_per_cmd") (pk (site (c ^ ".msg_size") "self_ns")) "ns";
        m (c ^ ".query.ns_per_cmd") (pk (site (c ^ ".query") "self_ns")) "ns";
      ]
  in
  let rest =
    [
      m "rsm.client.poll.self_ns_per_cmd" (pc (site "rsm.client.poll" "self_ns")) "ns";
      m "rsm.client.poll.self_words_per_cmd" (pc (site "rsm.client.poll" "self_words")) "words";
      m "rsm.client.cmds_per_batch" (per (get "client.cmds") (get "client.batches")) "cmds";
      m "rsm.client.leader_changes" (get "client.leader_changes") "count";
      m "rsm.single_node_ns_per_cmd" single_node_ns "ns";
      m "net.msgs_per_cmd" (pc (get "net.msgs")) "msgs/cmd";
      m "net.bytes_per_msg" (per (get "net.bytes") (get "net.msgs")) "B";
      m "omnipaxos.elections" (get "omnipaxos.elections") "count";
      m "omnipaxos.session_resets" (site "omnipaxos.session_reset" "calls") "count";
      m "omnipaxos.installs" (get "omnipaxos.installs") "count";
      m "openloop.lag_p99_ms" (get "openloop.lag_p99_ms") "sim-ms";
      m "openloop.resubmits" (get "openloop.resubmits") "count";
      m "obs.events_per_cmd" (pc obs_events) "events/cmd";
      m "obs.bytes_per_event" (per (get "obs.bytes") obs_events) "B";
      m "obs.encode_ns_per_event" (per (site "obs.encode" "self_ns") obs_events) "ns";
      m "obs.monitor_ns_per_event" (per (site "obs.monitor" "self_ns") obs_events) "ns";
      m "obs.self_words_per_event"
        (per (site "obs.encode" "self_words" +. site "obs.monitor" "self_words") obs_events)
        "words";
      m "gc.minor_collections_per_mcmd" (per (get "gc.minor" *. 1e6) commits) "count/Mcmd";
      m "gc.major_collections" (get "gc.major") "count";
      m "gc.promoted_words_per_cmd" (pc (get "gc.promoted")) "words";
      m "bench.trace_overhead_pct" trace_overhead_pct "%";
      m "bench.cpu_frac" cpu_frac "ratio";
      m "bench.wrapper_ns_per_call" wrapper_ns "ns";
      m "bench.harness_ns_per_cmd" (pc (site "bench.harness" "self_ns")) "ns";
    ]
  in
  simnet @ List.concat_map core Cores.names @ rest
