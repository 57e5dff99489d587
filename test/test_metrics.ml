(* Unit tests for the measurement utilities: the decided-count series (the
   source of every down-time and throughput figure), the t-distribution
   statistics, the metric registry's reset/iteration/exposition surface,
   and the histogram's allocation-free recording ([observe_n], the
   bit-based bucket). *)

module Series = Rsm.Metrics.Series
module Stats = Rsm.Metrics.Stats
module M = Obs.Metric

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf msg a b = Alcotest.(check (float 1e-6)) msg a b

let series points =
  let s = Series.create () in
  List.iter (fun (time, count) -> Series.push s ~time ~count) points;
  s

let test_count_at () =
  let s = series [ (0.0, 0); (10.0, 5); (20.0, 9) ] in
  check_int "before first sample" 0 (Series.count_at s (-1.0));
  check_int "at a sample" 5 (Series.count_at s 10.0);
  check_int "between samples" 5 (Series.count_at s 15.0);
  check_int "after last" 9 (Series.count_at s 100.0)

let test_total_between () =
  let s = series [ (0.0, 0); (10.0, 5); (20.0, 9); (30.0, 9) ] in
  check_int "full range" 9 (Series.total_between s ~from:0.0 ~until:30.0);
  check_int "partial" 4 (Series.total_between s ~from:10.0 ~until:25.0);
  check_int "flat tail" 0 (Series.total_between s ~from:20.0 ~until:30.0)

let test_longest_gap () =
  (* Progress at 10 and 60; nothing in between: the gap is 50. *)
  let s =
    series [ (0.0, 0); (10.0, 5); (20.0, 5); (40.0, 5); (60.0, 8); (70.0, 9) ]
  in
  checkf "mid-run gap" 50.0 (Series.longest_gap s ~from:0.0 ~until:70.0);
  (* A series that stops progressing: the gap extends to the window end. *)
  let s2 = series [ (0.0, 0); (10.0, 5) ] in
  checkf "trailing gap" 90.0 (Series.longest_gap s2 ~from:0.0 ~until:100.0)

let test_edge_cases () =
  let empty = series [] in
  check_int "count_at on empty" 0 (Series.count_at empty 10.0);
  check_int "total_between on empty" 0
    (Series.total_between empty ~from:0.0 ~until:10.0);
  checkf "longest_gap on empty spans the window" 10.0
    (Series.longest_gap empty ~from:0.0 ~until:10.0);
  checkf "longest_gap with until = from" 0.0
    (Series.longest_gap empty ~from:5.0 ~until:5.0);
  checkf "longest_gap with from > until" 0.0
    (Series.longest_gap empty ~from:10.0 ~until:5.0);
  let s = series [ (0.0, 0); (10.0, 5); (20.0, 9) ] in
  check_int "total_between with from > until" 0
    (Series.total_between s ~from:20.0 ~until:10.0);
  (* Half-open window semantics: a sample exactly at [from] belongs to the
     preceding window, one at [until] to this one. *)
  check_int "sample at from excluded" 4
    (Series.total_between s ~from:10.0 ~until:20.0);
  check_int "sample at until included" 5
    (Series.total_between s ~from:0.0 ~until:10.0);
  check_int "adjacent windows don't double-count" 9
    (Series.total_between s ~from:0.0 ~until:10.0
    + Series.total_between s ~from:10.0 ~until:20.0);
  (* Progress exactly at the window boundaries bounds the gap. *)
  checkf "progress at both ends" 10.0
    (Series.longest_gap s ~from:10.0 ~until:20.0);
  check "windowed with until <= from is empty" true
    (Series.windowed s ~from:10.0 ~until:10.0 ~window:5.0 = [])

let test_windowed () =
  let s = series [ (0.0, 0); (5.0, 2); (15.0, 6); (25.0, 7) ] in
  let w = Series.windowed s ~from:0.0 ~until:30.0 ~window:10.0 in
  check "three windows" true (List.map snd w = [ 2; 4; 1 ])

let test_stats () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  check "single sample has no CI" true (Stats.ci95 [ 42.0 ] = 0.0);
  (* df = 2 -> t = 4.303; ci = t * s / sqrt 3. *)
  let ci = Stats.ci95 [ 1.0; 2.0; 3.0 ] in
  checkf "t-based ci" (4.303 /. sqrt 3.0) ci;
  check "normal approximation beyond df 30" true
    (abs_float (Stats.t_value ~df:100 -. 1.96) < 1e-9)

let test_gauge_reset () =
  let g = M.Gauge.create () in
  M.Gauge.set g 7.5;
  M.Gauge.add g 2.5;
  checkf "value before reset" 10.0 (M.Gauge.value g);
  M.Gauge.reset g;
  checkf "reset zeroes" 0.0 (M.Gauge.value g)

let test_histogram_reset () =
  let h = M.Histogram.create () in
  List.iter (M.Histogram.observe h) [ 1.0; 4.0; 100.0 ];
  check_int "count before reset" 3 (M.Histogram.count h);
  M.Histogram.reset h;
  check_int "count" 0 (M.Histogram.count h);
  checkf "sum" 0.0 (M.Histogram.sum h);
  check "buckets empty" true (M.Histogram.buckets h = []);
  check "percentile of empty is nan" true
    (Float.is_nan (M.Histogram.percentile h ~p:50.0));
  (* The reset histogram behaves like a fresh one. *)
  M.Histogram.observe h 2.0;
  check_int "observes again" 1 (M.Histogram.count h);
  checkf "sum restarts" 2.0 (M.Histogram.sum h);
  checkf "min restarts" 2.0 (M.Histogram.min_value h);
  checkf "max restarts" 2.0 (M.Histogram.max_value h)

(* The bucket by way of [Float.frexp]: the reference the bit-based
   [bucket_of] must match. *)
let frexp_bucket x =
  if x < 1.0 then 0
  else
    let _, e = Float.frexp x in
    min 62 e

let test_bucket_of_matches_frexp () =
  let pow2 k = Float.ldexp 1.0 k in
  let values =
    [ 0.0; -0.0; -1.0; 4.9e-324; Float.min_float; 0.5; 1.0; 1.5; 3.0;
      Float.max_float; infinity; neg_infinity; nan; Float.ldexp 1.0 62 *. 3.0;
      pow2 63; pow2 100; pow2 1023 ]
    @ List.concat_map
        (fun k -> [ pow2 k; Float.pred (pow2 k); Float.succ (pow2 k) ])
        (List.init 2098 (fun i -> i - 1074))
  in
  List.iter
    (fun x ->
      check_int (Printf.sprintf "bucket of %h" x) (frexp_bucket x)
        (M.Histogram.bucket_of x))
    values;
  check_int "infinity stays in bucket 0" 0 (M.Histogram.bucket_of infinity);
  check_int "nan stays in bucket 0" 0 (M.Histogram.bucket_of nan)

(* Everything a histogram exposes, with floats compared bit for bit (nan
   included). *)
let histogram_view h =
  let bits x = Int64.bits_of_float x in
  ( M.Histogram.buckets h,
    M.Histogram.count h,
    List.map bits
      [
        M.Histogram.sum h;
        M.Histogram.mean h;
        M.Histogram.min_value h;
        M.Histogram.max_value h;
      ],
    List.map
      (fun p -> bits (M.Histogram.percentile h ~p))
      [ 0.0; 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ] )

(* [observe_n h x k] against k calls of [observe h x], over random runs of
   (value, repeat) pairs that include zero, negative and non-integral
   values and k = 0. *)
let prop_observe_n =
  QCheck.Test.make ~name:"observe_n x k = k x observe x" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 40)
        (pair (float_range (-10.0) 5000.0) (int_bound 50)))
    (fun runs ->
      let a = M.Histogram.create () and b = M.Histogram.create () in
      List.iter
        (fun (x, k) ->
          M.Histogram.observe_n a x k;
          for _ = 1 to k do
            M.Histogram.observe b x
          done)
        runs;
      histogram_view a = histogram_view b)

(* The samples are constants: a float computed at the call site would be
   boxed by the caller to be passed, which is not the histogram's cost. *)
let test_observe_alloc_free () =
  let h = M.Histogram.create () in
  let words () = int_of_float (Gc.minor_words ()) in
  let w0 = words () in
  for _ = 1 to 10_000 do
    M.Histogram.observe h 0.25;
    M.Histogram.observe h 1e6;
    M.Histogram.observe_n h 3.0 3;
    M.Histogram.observe_n h 7.5 0
  done;
  check_int "observe and observe_n allocate nothing" 0 (words () - w0)

let test_registry_sorted () =
  let r = M.Registry.create () in
  (* Register out of order: iteration must come back sorted by key. *)
  List.iter (fun n -> ignore (M.Registry.counter r n)) [ "z"; "a"; "m" ];
  List.iter (fun n -> ignore (M.Registry.gauge r n)) [ "g2"; "g1" ];
  ignore (M.Registry.histogram r "h");
  check "counters sorted" true
    (List.map fst (M.Registry.counters r) = [ "a"; "m"; "z" ]);
  check "gauges sorted" true
    (List.map fst (M.Registry.gauges r) = [ "g1"; "g2" ]);
  check "find-or-create returns the same metric" true
    (M.Registry.counter r "a" == M.Registry.counter r "a");
  M.Registry.clear r;
  check "clear empties" true (M.Registry.counters r = [])

let test_exposition () =
  let r = M.Registry.create () in
  M.Counter.add (M.Registry.counter r "cluster.proposals.accepted") 41;
  M.Gauge.set (M.Registry.gauge r "simnet.heap.size") 7.0;
  let h = M.Registry.histogram r "commit.latency_ms" in
  List.iter (M.Histogram.observe h) [ 0.5; 3.0 ];
  let e = M.Registry.render_exposition r in
  let has needle =
    let nh = String.length e and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.equal (String.sub e i nn) needle || go (i + 1))
    in
    go 0
  in
  check "counter line (dots sanitised)" true
    (has "# TYPE cluster_proposals_accepted counter\n\
          cluster_proposals_accepted 41");
  check "gauge line" true (has "simnet_heap_size 7");
  check "histogram type line" true (has "# TYPE commit_latency_ms histogram");
  check "cumulative buckets end at +Inf" true
    (has "commit_latency_ms_bucket{le=\"+Inf\"} 2");
  check "sum and count" true
    (has "commit_latency_ms_sum 3.5" && has "commit_latency_ms_count 2");
  (* Rendering twice is byte-identical (sorted iteration, no wall clock). *)
  check "deterministic" true
    (String.equal e (M.Registry.render_exposition r))

let test_snapshot_json () =
  let r = M.Registry.create () in
  M.Counter.add (M.Registry.counter r "c") 3;
  M.Gauge.set (M.Registry.gauge r "g") 1.5;
  M.Histogram.observe (M.Registry.histogram r "h") 4.0;
  let j = M.Registry.snapshot_json r ~time:250.0 in
  let s = Bench_report.Json.to_compact_string j in
  check "one line" true (not (String.contains s '\n'));
  check "snapshot carries the sample time" true
    (Bench_report.Json.member "t_ms" j = Some (Bench_report.Json.float 250.0));
  check "snapshot is deterministic" true
    (String.equal s (Bench_report.Json.to_compact_string j))

let () =
  Alcotest.run "metrics"
    [
      ( "series",
        [
          Alcotest.test_case "count_at" `Quick test_count_at;
          Alcotest.test_case "total_between" `Quick test_total_between;
          Alcotest.test_case "longest_gap" `Quick test_longest_gap;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "windowed" `Quick test_windowed;
        ] );
      ("stats", [ Alcotest.test_case "mean/stddev/ci" `Quick test_stats ]);
      ( "metric",
        [
          Alcotest.test_case "gauge reset" `Quick test_gauge_reset;
          Alcotest.test_case "histogram reset" `Quick test_histogram_reset;
          Alcotest.test_case "bucket_of matches frexp" `Quick
            test_bucket_of_matches_frexp;
          QCheck_alcotest.to_alcotest prop_observe_n;
          Alcotest.test_case "recording allocates nothing" `Quick
            test_observe_alloc_free;
          Alcotest.test_case "registry sorted iteration" `Quick
            test_registry_sorted;
          Alcotest.test_case "prometheus exposition" `Quick test_exposition;
          Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
        ] );
    ]
