(* Metrics: counters, gauges and log-scale histograms behind a string-keyed
   registry. Everything is plain mutable ints and unboxed floats, and no
   recording call allocates, so they are cheap enough for hot paths.

   Histograms use base-2 log-scale buckets: bucket 0 holds [0, 1), bucket i
   (i >= 1) holds [2^(i-1), 2^i). 63 buckets cover up to 2^62, far beyond
   any simulated duration or byte count. Exact count/sum/min/max are kept
   alongside, so the mean is exact; only percentiles are
   bucket-interpolated. Spreads and confidence intervals are
   [Rsm.Metrics.Stats]'s job. *)

module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
  let reset t = t.v <- 0
end

module Gauge = struct
  type t = { mutable v : float }

  let create () = { v = 0.0 }
  let set t x = t.v <- x
  let add t x = t.v <- t.v +. x
  let value t = t.v
  let reset t = t.v <- 0.0
end

module Histogram = struct
  let nbuckets = 63

  (* An all-float record is stored flat, so updating these fields never
     boxes a float (a float field of a mixed record would). *)
  type floats = {
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  type t = { buckets : int array; mutable count : int; f : floats }

  let create () =
    {
      buckets = Array.make nbuckets 0;
      count = 0;
      f = { sum = 0.0; minv = infinity; maxv = neg_infinity };
    }

  (* The bucket is the binary exponent read from the IEEE bits: for
     x >= 1 the biased exponent e gives [Float.frexp x = (_, e - 1022)].
     [infinity] and [nan] (exponent field all ones) land in bucket 0, as
     [frexp]'s exponent 0 put them there. *)
  let[@inline] bucket_of x =
    if x < 1.0 then 0
    else
      let e = (Int64.to_int (Int64.bits_of_float x) lsr 52) land 0x7ff in
      if e = 0x7ff then 0 else min (nbuckets - 1) (e - 1022)

  (* Bucket i covers [lower_bound i, upper_bound i). *)
  let lower_bound i = if i = 0 then 0.0 else Float.ldexp 1.0 (i - 1)
  let upper_bound i = Float.ldexp 1.0 i

  let reset t =
    Array.fill t.buckets 0 nbuckets 0;
    t.count <- 0;
    t.f.sum <- 0.0;
    t.f.minv <- infinity;
    t.f.maxv <- neg_infinity

  let observe_n t x k =
    if k > 0 then begin
      let x = Float.max x 0.0 in
      let b = bucket_of x in
      t.buckets.(b) <- t.buckets.(b) + k;
      t.count <- t.count + k;
      let f = t.f in
      (* k separate additions, not one [x *. k]: the sum stays bit-identical
         to k calls of [observe]. *)
      for _ = 1 to k do
        f.sum <- f.sum +. x
      done;
      if x < f.minv then f.minv <- x;
      if x > f.maxv then f.maxv <- x
    end

  let observe t x = observe_n t x 1

  let count t = t.count
  let sum t = t.f.sum
  let min_value t = if t.count = 0 then nan else t.f.minv
  let max_value t = if t.count = 0 then nan else t.f.maxv
  let mean t = if t.count = 0 then nan else t.f.sum /. float_of_int t.count

  (* Linear interpolation inside the target bucket; exact min/max at the
     extremes. *)
  let percentile t ~p =
    if t.count = 0 then nan
    else begin
      let target = p /. 100.0 *. float_of_int t.count in
      let rec find i cum =
        if i >= nbuckets then t.f.maxv
        else
          let cum' = cum + t.buckets.(i) in
          if float_of_int cum' >= target && t.buckets.(i) > 0 then begin
            let within =
              (target -. float_of_int cum) /. float_of_int t.buckets.(i)
            in
            let lo = Float.max (lower_bound i) t.f.minv in
            let hi = Float.min (upper_bound i) t.f.maxv in
            lo +. (within *. (hi -. lo))
          end
          else find (i + 1) cum'
      in
      find 0 0
    end

  (* Non-empty buckets as (upper bound, count), for dumps and tests. *)
  let buckets t =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      if t.buckets.(i) > 0 then acc := (upper_bound i, t.buckets.(i)) :: !acc
    done;
    !acc
end

module Registry = struct
  type t = {
    counters : (string, Counter.t) Hashtbl.t;
    gauges : (string, Gauge.t) Hashtbl.t;
    histograms : (string, Histogram.t) Hashtbl.t;
  }

  let create () =
    {
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 16;
      histograms = Hashtbl.create 16;
    }

  let find_or_add tbl name make =
    match Hashtbl.find_opt tbl name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add tbl name m;
        m

  let counter t name = find_or_add t.counters name Counter.create
  let gauge t name = find_or_add t.gauges name Gauge.create
  let histogram t name = find_or_add t.histograms name Histogram.create

  let clear t =
    Hashtbl.reset t.counters;
    Hashtbl.reset t.gauges;
    Hashtbl.reset t.histograms

  let sorted_bindings tbl =
    Replog.Det.sorted_bindings ~compare_key:String.compare tbl

  (* All iteration over a registry goes through these sorted views —
     registration order (and therefore Hashtbl layout) depends on code
     paths taken, which would make every rendered output nondeterministic. *)
  let counters t = sorted_bindings t.counters
  let gauges t = sorted_bindings t.gauges
  let histograms t = sorted_bindings t.histograms

  (* One human-readable line per metric, sorted by name. *)
  let to_lines t =
    let counters =
      List.map
        (fun (k, c) -> Printf.sprintf "counter   %-32s %d" k (Counter.value c))
        (counters t)
    in
    let gauges =
      List.map
        (fun (k, g) -> Printf.sprintf "gauge     %-32s %g" k (Gauge.value g))
        (gauges t)
    in
    let histograms =
      List.map
        (fun (k, h) ->
          Printf.sprintf
            "histogram %-32s count=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f" k
            (Histogram.count h) (Histogram.mean h)
            (Histogram.percentile h ~p:50.0)
            (Histogram.percentile h ~p:99.0)
            (Histogram.max_value h))
        (histograms t)
    in
    counters @ gauges @ histograms

  (* Prometheus text-format names: [a-zA-Z0-9_:], so the registry's dotted
     keys are mapped one character at a time ('.' becomes '_'). *)
  let exposition_name k =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      k

  (* Prometheus-style text exposition: `# TYPE` line per metric, histogram
     as cumulative `_bucket{le=...}` plus `_sum`/`_count`. Deterministic:
     sorted by key, and every value is a pure function of the recorded
     samples. *)
  let render_exposition t =
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    List.iter
      (fun (k, c) ->
        let n = exposition_name k in
        add "# TYPE %s counter\n" n;
        add "%s %d\n" n (Counter.value c))
      (counters t);
    List.iter
      (fun (k, g) ->
        let n = exposition_name k in
        add "# TYPE %s gauge\n" n;
        add "%s %g\n" n (Gauge.value g))
      (gauges t);
    List.iter
      (fun (k, h) ->
        let n = exposition_name k in
        add "# TYPE %s histogram\n" n;
        let cum = ref 0 in
        List.iter
          (fun (upper, count) ->
            cum := !cum + count;
            add "%s_bucket{le=\"%g\"} %d\n" n upper !cum)
          (Histogram.buckets h);
        add "%s_bucket{le=\"+Inf\"} %d\n" n (Histogram.count h);
        add "%s_sum %g\n" n (Histogram.sum h);
        add "%s_count %d\n" n (Histogram.count h))
      (histograms t);
    Buffer.contents buf

  (* One time-stamped snapshot of every metric, for periodic JSONL series
     (`opx metrics --snapshots`). Percentiles are pre-rendered so readers
     need no bucket-boundary knowledge. *)
  let snapshot_json t ~time =
    let module J = Bench_report.Json in
    let counters =
      List.map (fun (k, c) -> (k, J.Int (Counter.value c))) (counters t)
    in
    let gauges =
      List.map (fun (k, g) -> (k, J.float (Gauge.value g))) (gauges t)
    in
    let histograms =
      List.map
        (fun (k, h) ->
          ( k,
            J.Obj
              [
                ("count", J.Int (Histogram.count h));
                ("sum", J.float (Histogram.sum h));
                ("p50", J.float (Histogram.percentile h ~p:50.0));
                ("p99", J.float (Histogram.percentile h ~p:99.0));
                ("max", J.float (Histogram.max_value h));
              ] ))
        (histograms t)
    in
    J.Obj
      [
        ("t_ms", J.float time);
        ("counters", J.Obj counters);
        ("gauges", J.Obj gauges);
        ("histograms", J.Obj histograms);
      ]

  (* The process-wide registry the instrumented layers record into. *)
  let default = create ()
end
