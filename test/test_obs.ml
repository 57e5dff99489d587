(* Unit tests for the observability layer (lib/obs): ring-buffer semantics,
   tracer sink fan-out and state restoration, histogram bucketing, the
   streaming trace checks the analyzer runs (invariant monitor, including an
   injected two-leaders-for-one-ballot split-brain trace; causal monitor and
   its open-send cap; span tracker), health detectors, binary trace decoding
   of malformed input, and the profiler. *)

module Ring = Obs.Ring
module Trace = Obs.Trace
module Event = Obs.Event
module Metric = Obs.Metric
module Invariant = Obs.Invariant
module Causal = Obs.Causal
module Span = Obs.Span
module Health = Obs.Health
module Tracebin = Obs.Tracebin

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---------------- ring buffer ---------------- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  check_int "capacity" 4 (Ring.capacity r);
  check_int "empty" 0 (Ring.length r);
  check "empty to_list" true (Ring.to_list r = []);
  Ring.push r 1;
  Ring.push r 2;
  check_int "partial fill" 2 (Ring.length r);
  check "oldest first" true (Ring.to_list r = [ 1; 2 ])

let test_ring_wraparound () =
  let r = Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  check_int "length capped at capacity" 4 (Ring.length r);
  check "keeps the newest, oldest first" true (Ring.to_list r = [ 7; 8; 9; 10 ]);
  (* Wrap exactly once more around the boundary. *)
  Ring.push r 11;
  check "still oldest first after another push" true
    (Ring.to_list r = [ 8; 9; 10; 11 ]);
  let seen = ref [] in
  Ring.iter r (fun x -> seen := x :: !seen);
  check "iter agrees with to_list" true (List.rev !seen = Ring.to_list r);
  Ring.clear r;
  check_int "clear empties" 0 (Ring.length r);
  Ring.push r 42;
  check "usable after clear" true (Ring.to_list r = [ 42 ])

let test_ring_invalid_capacity () =
  check "capacity 0 rejected" true
    (try
       ignore (Ring.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

(* ---------------- tracer ---------------- *)

let ev ?(time = 1.0) ?(node = 0) kind = { Event.time; node; kind }
let b1 = { Event.n = 5; prio = 0; pid = 1 }

let test_sink_fanout () =
  let a = ref [] and b = ref [] in
  let ia = Trace.subscribe (fun e -> a := e :: !a) in
  let ib = Trace.subscribe (fun e -> b := e :: !b) in
  Trace.set_enabled true;
  check "hot with sinks" true (Trace.on ());
  Trace.emit_at ~time:1.0 ~node:3 Event.Crashed;
  check_int "first sink got it" 1 (List.length !a);
  check_int "second sink got it" 1 (List.length !b);
  Trace.unsubscribe ia;
  Trace.emit_at ~time:2.0 ~node:3 Event.Recovered;
  check_int "unsubscribed sink stops" 1 (List.length !a);
  check_int "remaining sink continues" 2 (List.length !b);
  (* Enabled but unsubscribed: the guard must be cold (the disabled-path
     cost model bench/check_overhead.ml verifies relies on this). *)
  Trace.unsubscribe ib;
  check "enabled but unsubscribed is cold" false (Trace.on ());
  (* Disabled with a sink: also cold, and emits are dropped. *)
  let cnt = ref 0 in
  let ic = Trace.subscribe (fun _ -> incr cnt) in
  Trace.set_enabled false;
  check "disabled is cold" false (Trace.on ());
  Trace.emit_at ~time:3.0 ~node:0 Event.Crashed;
  check_int "no events while disabled" 0 !cnt;
  Trace.unsubscribe ic

let test_with_recording () =
  Trace.set_enabled false;
  let v, { Trace.events; dropped; dropped_by_kind } =
    Trace.with_recording (fun () ->
        Trace.emit_at ~time:1.0 ~node:2
          (Event.Session_drop { peer = 0; session = 1 });
        Trace.emit_at ~time:2.0 ~node:2
          (Event.Session_up { peer = 0; session = 2 });
        17)
  in
  check_int "returns the function's result" 17 v;
  check_int "recorded both events" 2 (List.length events);
  check_int "complete recording reports no drops" 0 dropped;
  check "no drops means empty breakdown" true (dropped_by_kind = []);
  check "oldest first" true
    ((List.hd events).Event.kind = Event.Session_drop { peer = 0; session = 1 });
  check "tracer state restored" false (Trace.is_enabled ());
  (* The bounded ring drops the oldest events of an over-long run — and
     says so, instead of passing the truncation off as a complete trace. *)
  let (), { Trace.events; dropped; dropped_by_kind } =
    Trace.with_recording ~capacity:3 (fun () ->
        for i = 1 to 5 do
          Trace.emit_at ~time:(float_of_int i) ~node:0 Event.Crashed
        done)
  in
  check "over-capacity run keeps the newest" true
    (List.map (fun (e : Event.t) -> e.time) events = [ 3.0; 4.0; 5.0 ]);
  check_int "overflow is counted" 2 dropped;
  check "overflow is attributed per kind" true
    (dropped_by_kind = [ ("crash", 2) ])

(* Under a sampler the site's guard decides: [emit] delivers every event
   it is handed — a never-sampled kind each time — and [on_kind] keeps 1
   in [rate] of a sampleable kind. *)
let test_sampler_decides_at_guard () =
  let kinds = ref [] in
  Trace.set_sampling (Some (Obs.Sampling.create ~head:0 ~rate:10 ()));
  Fun.protect
    ~finally:(fun () -> Trace.set_sampling None)
    (fun () ->
      Trace.with_sink
        ~make_sink:(fun () e -> kinds := Event.kind_name e.Event.kind :: !kinds)
        ~close:ignore
        (fun () ->
          for i = 0 to 99 do
            Trace.emit ~node:0 (Event.Decided { b = b1; decided_idx = i });
            if Trace.on_kind Event.proposed_tag then
              Trace.emit ~node:0 (Event.Proposed { log_idx = i; cmd_id = i })
          done));
  let count k = List.length (List.filter (String.equal k) !kinds) in
  check_int "every never-sampled event reaches the sink" 100 (count "decide");
  check_int "on_kind keeps 1 in 10" 10 (count "proposed")

let test_event_json () =
  let b = { Event.n = 3; prio = 1; pid = 2 } in
  let j =
    Tracebin.to_json
      (ev ~time:12.5 ~node:1 (Event.Decided { b; decided_idx = 7 }))
  in
  check "decide json" true
    (j = {|{"t":12.500,"node":1,"kind":"decide","ballot":{"n":3,"prio":1,"pid":2},"decided_idx":7}|});
  let j =
    Tracebin.to_json
      (ev
         (Event.Msg_drop
            { src = 0; dst = 1; reason = "link-down"; session = 4; send_id = 9 }))
  in
  check "drop json has reason, session and send_id" true
    (j
    = {|{"t":1.000,"node":0,"kind":"drop","src":0,"dst":1,"reason":"link-down","session":4,"send_id":9}|}
    );
  (* Strings are escaped defensively. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let j =
    Tracebin.to_json
      (ev (Event.Reconfig { config_id = 1; milestone = {|a"b|} }))
  in
  check "escaped quote" true (contains j {|a\"b|})

(* ---------------- histogram ---------------- *)

let test_histogram_bucketing () =
  let h = Metric.Histogram.create () in
  check "empty mean is nan" true (Float.is_nan (Metric.Histogram.mean h));
  check "empty percentile is nan" true
    (Float.is_nan (Metric.Histogram.percentile h ~p:50.0));
  (* Base-2 log buckets: bucket 0 = [0,1), then [1,2), [2,4), [4,8)... *)
  List.iter (Metric.Histogram.observe h) [ 0.0; 0.5; 1.0; 1.5; 3.0; 6.0; 6.0 ];
  check_int "count" 7 (Metric.Histogram.count h);
  checkf "sum" 18.0 (Metric.Histogram.sum h);
  check "buckets are (upper-bound, count) ascending" true
    (Metric.Histogram.buckets h = [ (1.0, 2); (2.0, 2); (4.0, 1); (8.0, 2) ]);
  checkf "exact mean" (18.0 /. 7.0) (Metric.Histogram.mean h);
  checkf "exact min" 0.0 (Metric.Histogram.min_value h);
  checkf "exact max" 6.0 (Metric.Histogram.max_value h);
  (* Negative samples clamp to 0 (bucket 0). *)
  let h2 = Metric.Histogram.create () in
  Metric.Histogram.observe h2 (-5.0);
  checkf "negative clamped" 0.0 (Metric.Histogram.max_value h2);
  check "clamped into bucket 0" true
    (Metric.Histogram.buckets h2 = [ (1.0, 1) ]);
  (* Percentiles interpolate within a bucket and are monotone. *)
  let h3 = Metric.Histogram.create () in
  for _ = 1 to 100 do
    Metric.Histogram.observe h3 5.0
  done;
  let p50 = Metric.Histogram.percentile h3 ~p:50.0 in
  check "p50 inside [4,8) bucket clamped to [5,5]" true (p50 = 5.0);
  List.iter (fun x -> Metric.Histogram.observe h3 x) [ 100.0; 200.0 ];
  let p50 = Metric.Histogram.percentile h3 ~p:50.0
  and p99 = Metric.Histogram.percentile h3 ~p:99.0 in
  check "percentile monotone" true (p50 <= p99);
  check "p99 above the bulk" true (p99 > 5.0)

let test_registry () =
  let r = Metric.Registry.create () in
  let c = Metric.Registry.counter r "decides" in
  Metric.Counter.incr c;
  Metric.Counter.add c 2;
  check_int "same name, same counter" 3
    (Metric.Counter.value (Metric.Registry.counter r "decides"));
  Metric.Gauge.set (Metric.Registry.gauge r "leader") 4.0;
  Metric.Histogram.observe (Metric.Registry.histogram r "gap_ms") 3.0;
  check_int "one line per metric" 3 (List.length (Metric.Registry.to_lines r));
  Metric.Registry.clear r;
  check_int "clear resets" 0
    (Metric.Counter.value (Metric.Registry.counter r "decides"))

let test_event_json_roundtrip () =
  let b = { Event.n = 2; prio = 1; pid = 0 } in
  let samples =
    [
      ev (Event.Ballot_increment b);
      ev (Event.Leader_elected b);
      ev (Event.Leader_changed b);
      ev (Event.Prepare_round { b; log_idx = 3; decided_idx = 2 });
      ev (Event.Promise_sent { b; log_idx = 3; decided_idx = 2 });
      ev (Event.Accept_sent { b; start_idx = 1; count = 4 });
      ev (Event.Accepted_idx { b; log_idx = 5 });
      ev (Event.Decided { b; decided_idx = 5 });
      ev (Event.Proposed { log_idx = 7; cmd_id = 42 });
      ev
        (Event.Batch_flush
           { entries = 3; followers = 2; cap = 64; trigger = "size" });
      ev (Event.Cap_change { cap_from = 64; cap_to = 128 });
      ev (Event.Session_drop { peer = 1; session = 2 });
      ev (Event.Session_up { peer = 1; session = 3 });
      ev (Event.Link_cut { a = 0; b = 1 });
      ev (Event.Link_heal { a = 0; b = 1 });
      ev Event.Crashed;
      ev Event.Recovered;
      ev (Event.Reconfig { config_id = 1; milestone = "migration-done" });
      ev (Event.Msg_send { dst = 1; size = 100; send_id = 7; lc = 3 });
      ev (Event.Msg_deliver { src = 0; size = 100; send_id = 7; lc = 4 });
      ev
        (Event.Msg_drop
           { src = 0; dst = 1; reason = "link-down"; session = 2; send_id = 8 });
      ev (Event.Chaos_fault { step = 2; fault = "crash(1)" });
      ev (Event.Chaos_invoke { client = 0; op_id = 5; op = "put k 1" });
      ev (Event.Chaos_response { client = 0; op_id = 5; result = "ok" });
    ]
  in
  List.iter
    (fun e ->
      match Tracebin.of_json (Tracebin.to_json e) with
      | Ok e' -> check (Event.kind_name e.Event.kind) true (e = e')
      | Error msg ->
          Alcotest.failf "of_json failed for %s: %s"
            (Event.kind_name e.Event.kind)
            msg)
    samples;
  check "malformed json rejected" true (Result.is_error (Tracebin.of_json "{"));
  check "unknown kind rejected" true
    (Result.is_error (Tracebin.of_json {|{"t":1.0,"node":0,"kind":"nope"}|}))

(* ---------------- causal monitor ---------------- *)

let causal_of ?cap tr =
  let m = Causal.Monitor.create ?cap () in
  List.iter (Causal.Monitor.observe m) tr;
  m

let test_causal_pair () =
  let tr =
    [
      ev ~time:1.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 0; lc = 1 });
      ev ~time:1.5 ~node:1
        (Event.Msg_deliver { src = 0; size = 10; send_id = 0; lc = 2 });
      (* Sent but never delivered. *)
      ev ~time:2.0 ~node:0
        (Event.Msg_send { dst = 1; size = 5; send_id = 1; lc = 3 });
      (* Delivered without a recorded send (ring overflow evidence). *)
      ev ~time:3.0 ~node:1
        (Event.Msg_deliver { src = 0; size = 9; send_id = 99; lc = 9 });
    ]
  in
  let m = causal_of tr in
  check_int "one matched edge" 1 (Causal.Monitor.edges m);
  check_int "unmatched send counted" 1 (Causal.Monitor.unmatched_sends m);
  check_int "orphan deliver counted" 1 (Causal.Monitor.orphan_delivers m);
  check "clocks consistent" true (Causal.Monitor.clocks m = Ok ());
  (* A deliver consumes its send: a second deliver of the same id is an
     orphan, not a second edge. *)
  let m =
    causal_of
      (tr
      @ [
          ev ~time:4.0 ~node:1
            (Event.Msg_deliver { src = 0; size = 10; send_id = 0; lc = 10 });
        ])
  in
  check_int "redelivery adds no edge" 1 (Causal.Monitor.edges m);
  check_int "redelivery is an orphan" 2 (Causal.Monitor.orphan_delivers m)

let test_lamport_violation () =
  let tr =
    [
      ev ~time:1.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 0; lc = 5 });
      (* Delivery clock must exceed the send clock. *)
      ev ~time:1.5 ~node:1
        (Event.Msg_deliver { src = 0; size = 10; send_id = 0; lc = 5 });
    ]
  in
  check "non-increasing delivery clock detected" true
    (Causal.Monitor.clocks (causal_of tr)
    = Error "deliver #0 at node 1 has lc 5 <= send lc 5");
  let tr =
    [
      ev ~time:1.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 0; lc = 5 });
      (* A node's own message clocks must strictly increase. *)
      ev ~time:2.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 1; lc = 5 });
      (* Latched: a later violation does not replace the first. *)
      ev ~time:3.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 2; lc = 1 });
    ]
  in
  check "stuck sender clock detected, first violation latched" true
    (Causal.Monitor.clocks (causal_of tr)
    = Error "node 0 clock not increasing: 5 then 5 at t=2.000")

(* The open-send cap evicts the oldest open send and counts it unmatched;
   its late delivery is an unchecked orphan, so eviction may hide a clock
   violation (deliver #0 has lc 1 <= its send's lc 1) but never invents
   one. *)
let test_causal_cap () =
  let tr =
    [
      ev ~time:1.0 ~node:0
        (Event.Msg_send { dst = 1; size = 1; send_id = 0; lc = 1 });
      ev ~time:2.0 ~node:0
        (Event.Msg_send { dst = 1; size = 1; send_id = 1; lc = 2 });
      ev ~time:3.0 ~node:1
        (Event.Msg_deliver { src = 0; size = 1; send_id = 0; lc = 1 });
      ev ~time:4.0 ~node:1
        (Event.Msg_deliver { src = 0; size = 1; send_id = 1; lc = 3 });
    ]
  in
  let m = causal_of ~cap:1 tr in
  check_int "only the newest send matched" 1 (Causal.Monitor.edges m);
  check_int "evicted send counted unmatched" 1
    (Causal.Monitor.unmatched_sends m);
  check_int "evicted send's deliver is an orphan" 1
    (Causal.Monitor.orphan_delivers m);
  check "eviction fabricates no violation" true
    (Causal.Monitor.clocks m = Ok ());
  check "uncapped, the violation shows" true
    (Result.is_error (Causal.Monitor.clocks (causal_of tr)));
  check "cap 0 rejected" true
    (try
       ignore (Causal.Monitor.create ~cap:0 ());
       false
     with Invalid_argument _ -> true)

let test_critical_path () =
  let arr =
    [|
      ev ~time:1.0 ~node:0 (Event.Proposed { log_idx = 0; cmd_id = 0 });
      ev ~time:2.0 ~node:0
        (Event.Msg_send { dst = 1; size = 10; send_id = 0; lc = 1 });
      ev ~time:2.5 ~node:1
        (Event.Msg_deliver { src = 0; size = 10; send_id = 0; lc = 2 });
      ev ~time:3.0 ~node:1 (Event.Accepted_idx { b = b1; log_idx = 1 });
    |]
  in
  let stop (e : Event.t) =
    match e.Event.kind with
    | Event.Proposed _ -> true
    | _ -> false
  in
  (* Walk back from the follower ack: ack -> its delivery -> the matching
     send on the other node -> the leader's previous event (the stop). *)
  check "hops cross the network edge" true
    (Causal.critical_path arr ~target:3 ~stop = [ 0; 1; 2; 3 ]);
  (* max_len bounds the number of hops, so at most max_len + 1 indices. *)
  check "bounded walk" true
    (Causal.critical_path ~max_len:1 arr ~target:3 ~stop = [ 2; 3 ])

(* ---------------- span tracker ---------------- *)

(* Feed [tr] to a fresh tracker; returns it and the spans it closed, in
   emission order. *)
let track ~quorum tr =
  let t = Span.Tracker.create () in
  let closed =
    List.concat_map (fun e -> Span.Tracker.observe t ~quorum e) tr
  in
  (t, closed)

let test_span_assembly () =
  let b = { Event.n = 1; prio = 0; pid = 2 } in
  let tr =
    [
      ev ~time:1.0 ~node:2 (Event.Proposed { log_idx = 0; cmd_id = 10 });
      ev ~time:2.0 ~node:2 (Event.Accept_sent { b; start_idx = 0; count = 1 });
      ev ~time:3.0 ~node:0 (Event.Accepted_idx { b; log_idx = 1 });
      ev ~time:4.0 ~node:2 (Event.Decided { b; decided_idx = 1 });
    ]
  in
  (* n=3: quorum 2, so one non-leader ack completes the quorum. *)
  let t, closed = track ~quorum:2 tr in
  check_int "one span" 1 (Span.Tracker.total_spans t);
  check_int "decided" 1 (Span.Tracker.decided_spans t);
  check_int "none active" 0 (Span.Tracker.active t);
  match closed with
  | [ c ] ->
      check_int "log idx" 0 c.Span.Tracker.c_log_idx;
      check "total" true (c.Span.Tracker.c_total = 3.0);
      check "queueing" true (c.Span.Tracker.c_queueing = Some 1.0);
      check "replication" true (c.Span.Tracker.c_replication = Some 1.0);
      check "commit" true (c.Span.Tracker.c_commit = Some 1.0)
  | cs -> Alcotest.failf "expected one closed span, got %d" (List.length cs)

let test_span_undecided_and_reproposal () =
  let b1 = { Event.n = 1; prio = 0; pid = 2 } in
  let b2 = { Event.n = 2; prio = 0; pid = 1 } in
  let proposals =
    [
      ev ~time:1.0 ~node:2 (Event.Proposed { log_idx = 0; cmd_id = 1 });
      (* Leader change: the same index is re-proposed by another node. *)
      ev ~time:2.0 ~node:1 (Event.Proposed { log_idx = 0; cmd_id = 2 });
    ]
  in
  let t, closed = track ~quorum:2 proposals in
  check_int "re-proposal replaces, not duplicates" 1
    (Span.Tracker.total_spans t);
  check_int "never decided" 0 (Span.Tracker.decided_spans t);
  check "no total without decide" true (closed = []);
  (* The old leader's Accept no longer stamps the span; the new leader's
     does, and the total runs from the re-proposal. *)
  let _, closed =
    track ~quorum:2
      (proposals
      @ [
          ev ~time:3.0 ~node:2
            (Event.Accept_sent { b = b1; start_idx = 0; count = 1 });
          ev ~time:4.0 ~node:1
            (Event.Accept_sent { b = b2; start_idx = 0; count = 1 });
          ev ~time:5.0 ~node:1 (Event.Decided { b = b2; decided_idx = 1 });
        ])
  in
  match closed with
  | [ c ] ->
      check "latest proposer wins" true (c.Span.Tracker.c_queueing = Some 2.0);
      check "latest proposal wins" true (c.Span.Tracker.c_total = 3.0)
  | cs -> Alcotest.failf "expected one closed span, got %d" (List.length cs)

(* ---------------- health detectors ---------------- *)

let hcfg =
  {
    Health.n = 3;
    stall_ms = 100.0;
    churn_window_ms = 1000.0;
    churn_threshold = 2;
    suspect_after = 2;
  }

let db idx = Event.Decided { b = b1; decided_idx = idx }

let has_alert h ~edge ~substr =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.exists
    (fun (a : Health.alert) -> a.edge = edge && contains a.what substr)
    (Health.alerts h)

let test_health_stall_edges () =
  let h =
    Health.run hcfg
      [
        ev ~time:0.0 ~node:0 (db 1);
        (* Quiet period beyond stall_ms: any event drives the watchdog. *)
        ev ~time:150.0 ~node:0 (Event.Session_up { peer = 1; session = 1 });
        ev ~time:160.0 ~node:0 (db 2);
      ]
  in
  check "stall triggered" true (has_alert h ~edge:Health.Trigger ~substr:"stall");
  check "stall cleared by the next decide" true
    (has_alert h ~edge:Health.Clear ~substr:"stall");
  (* No trigger when decides keep flowing. *)
  let h =
    Health.run hcfg [ ev ~time:0.0 ~node:0 (db 1); ev ~time:50.0 ~node:0 (db 2) ]
  in
  check "no stall under steady decides" false
    (has_alert h ~edge:Health.Trigger ~substr:"stall")

let test_health_churn_edges () =
  let h =
    Health.run hcfg
      [
        ev ~time:10.0 ~node:0 (Event.Leader_changed b1);
        ev ~time:20.0 ~node:0 (Event.Leader_changed b1);
        (* Past the window the meter empties and the alert clears. *)
        ev ~time:2000.0 ~node:0 (db 1);
      ]
  in
  check "churn triggered at the threshold" true
    (has_alert h ~edge:Health.Trigger ~substr:"churn");
  check "churn cleared once the window drains" true
    (has_alert h ~edge:Health.Clear ~substr:"churn");
  let h = Health.run hcfg [ ev ~time:10.0 ~node:0 (Event.Leader_changed b1) ] in
  check "single change below threshold" false
    (has_alert h ~edge:Health.Trigger ~substr:"churn")

let test_health_suspect_edges () =
  let drop =
    Event.Msg_drop
      { src = 0; dst = 1; reason = "link-down"; session = 1; send_id = 1 }
  in
  let h =
    Health.run hcfg [ ev ~time:1.0 ~node:0 drop; ev ~time:2.0 ~node:0 drop ]
  in
  check "suspect after consecutive drops" true
    (has_alert h ~edge:Health.Trigger ~substr:"suspect 0->1");
  check "pair listed while suspected" true (Health.suspects h = [ (0, 1) ]);
  let h =
    Health.run hcfg
      [
        ev ~time:1.0 ~node:0 drop;
        ev ~time:2.0 ~node:0 drop;
        ev ~time:3.0 ~node:1
          (Event.Msg_deliver { src = 0; size = 10; send_id = 2; lc = 1 });
      ]
  in
  check "delivery clears the suspicion" true
    (has_alert h ~edge:Health.Clear ~substr:"suspect 0->1");
  check "no pairs after clear" true (Health.suspects h = []);
  (* A single drop between deliveries never reaches the threshold. *)
  let h =
    Health.run hcfg
      [
        ev ~time:1.0 ~node:0 drop;
        ev ~time:2.0 ~node:1
          (Event.Msg_deliver { src = 0; size = 10; send_id = 2; lc = 1 });
        ev ~time:3.0 ~node:0 drop;
      ]
  in
  check "interleaved drops stay below threshold" false
    (has_alert h ~edge:Health.Trigger ~substr:"suspect")

let test_health_recovery_episode () =
  let h =
    Health.run hcfg
      [
        ev ~time:0.0 ~node:0 (db 1);
        ev ~time:10.0 ~node:1 Event.Crashed;
        (* Faults in a burst coalesce into one episode. *)
        ev ~time:12.0 ~node:0 (Event.Link_cut { a = 0; b = 1 });
        ev ~time:20.0 ~node:2 (Event.Ballot_increment b1);
        ev ~time:50.0 ~node:2 (db 2);
      ]
  in
  (match Health.recoveries h with
  | [ r ] ->
      check "fault time" true (r.Health.fault_at = 10.0);
      check_int "burst coalesced" 2 r.Health.faults;
      check "detect latency" true (Health.detect_latency r = Some 10.0);
      check "recovery latency" true (Health.recovery_latency r = Some 40.0)
  | rs -> Alcotest.failf "expected one closed episode, got %d" (List.length rs));
  (* A trace ending mid-episode reports it open (no decide_at). *)
  let h =
    Health.run hcfg
      [ ev ~time:0.0 ~node:0 (db 1); ev ~time:10.0 ~node:1 Event.Crashed ]
  in
  (match Health.recoveries h with
  | [ r ] -> check "open episode has no decide" true (r.Health.decide_at = None)
  | rs -> Alcotest.failf "expected one open episode, got %d" (List.length rs))

(* ---------------- invariants ---------------- *)

let legit_trace =
  [
    ev ~time:1.0 ~node:1 (Event.Ballot_increment b1);
    ev ~time:2.0 ~node:1 (Event.Leader_elected b1);
    ev ~time:3.0 ~node:1
      (Event.Prepare_round { b = b1; log_idx = 0; decided_idx = 0 });
    ev ~time:4.0 ~node:1 (Event.Accept_sent { b = b1; start_idx = 0; count = 3 });
    ev ~time:5.0 ~node:2 (Event.Accepted_idx { b = b1; log_idx = 3 });
    ev ~time:6.0 ~node:1 (Event.Decided { b = b1; decided_idx = 3 });
    ev ~time:7.0 ~node:2 (Event.Decided { b = b1; decided_idx = 3 });
  ]

let invariant name tr = List.assoc name (Invariant.check_all tr)

let test_invariants_pass () =
  check "single leader ok" true
    (invariant "single-leader-per-ballot" legit_trace = Ok ());
  check "monotone ok" true
    (invariant "decided-prefix-monotonic" legit_trace = Ok ());
  check "check_all all green" true
    (List.for_all (fun (_, r) -> r = Ok ()) (Invariant.check_all legit_trace))

(* The injected split-brain: node 2 drives Accepts under node 1's ballot. *)
let test_two_leaders_one_ballot () =
  let bad =
    legit_trace
    @ [ ev ~time:8.0 ~node:2
          (Event.Accept_sent { b = b1; start_idx = 3; count = 1 });
      ]
  in
  match invariant "single-leader-per-ballot" bad with
  | Ok () -> Alcotest.fail "two leaders under one ballot not detected"
  | Error v ->
      check "violation at the offending event" true (v.Invariant.at = 8.0);
      check_int "offending node" 2 v.Invariant.node;
      check "the other invariant still holds" true
        (invariant "decided-prefix-monotonic" bad = Ok ())

(* Compaction events interleaved with decides must not trip the monotone
   invariant: a snapshot install jumps a lagging node's decided index
   forward (here node 2 installs at 5 after deciding 3), never back. *)
let test_monotone_across_install () =
  let tr =
    legit_trace
    @ [
        ev ~time:8.0 ~node:1 (Event.Snapshot_taken { idx = 5; bytes = 40 });
        ev ~time:8.1 ~node:1 (Event.Log_trimmed { upto = 5; entries = 5 });
        ev ~time:8.2 ~node:1 (Event.Decided { b = b1; decided_idx = 6 });
        ev ~time:8.5 ~node:2 (Event.Snapshot_installed { idx = 5; bytes = 40 });
        ev ~time:8.6 ~node:2 (Event.Log_trimmed { upto = 5; entries = 2 });
        ev ~time:9.0 ~node:2 (Event.Decided { b = b1; decided_idx = 6 });
      ]
  in
  check "monotone across install" true
    (invariant "decided-prefix-monotonic" tr = Ok ());
  check "check_all all green" true
    (List.for_all (fun (_, r) -> r = Ok ()) (Invariant.check_all tr))

let test_decided_regression_detected () =
  let bad =
    legit_trace @ [ ev ~time:9.0 ~node:2 (Event.Decided { b = b1; decided_idx = 1 }) ]
  in
  match invariant "decided-prefix-monotonic" bad with
  | Ok () -> Alcotest.fail "decided-index regression not detected"
  | Error v -> check_int "regressing node" 2 v.Invariant.node

(* ---------------- binary trace decoding ---------------- *)

(* A string length whose 9-byte varint sets bit 62, so it decodes to a
   negative int. *)
let negative_len = String.make 8 '\xff' ^ "\x7f"

let test_tracebin_negative_length () =
  (* In the header: version 1, one metadata pair whose key has that
     length. *)
  (match Tracebin.of_string ("opxtrace1\x01\x01" ^ negative_len) with
  | _ -> Alcotest.fail "header with a negative string length accepted"
  | exception Tracebin.Decode_error _ -> ());
  (* In an event: no metadata, then a Chaos_fault (tag 24, dt 0, node 0,
     step 0) whose inline fault string has that length. *)
  let src =
    Tracebin.of_string ("opxtrace1\x01\x00\x18\x00\x00\x00\x00" ^ negative_len)
  in
  check "event with a negative string length is an Error" true
    (Result.is_error (Tracebin.iter src ignore))

(* Decoding a mutated trace may fail, but only with [Decode_error] from
   [of_string] (the binary header) or an [Error] from [iter]. *)
let decode_never_raises ~round mutated =
  match Tracebin.of_string mutated with
  | exception Tracebin.Decode_error _ -> ()
  | exception exn ->
      Alcotest.failf "round %d: of_string raised %s" round
        (Printexc.to_string exn)
  | src -> (
      match Tracebin.iter src ignore with
      | Ok () | Error _ -> ()
      | exception exn ->
          Alcotest.failf "round %d: iter raised %s" round
            (Printexc.to_string exn))

(* Seeded byte overwrites, long varints and truncation of a real binary
   trace: a source either fails to construct with [Decode_error] or decodes
   to [Ok]/[Error], never anything else. *)
let test_tracebin_mutations () =
  let buf = Buffer.create 4096 in
  let w = Tracebin.writer ~meta:[ ("n", "3") ] (Buffer.add_string buf) in
  Obs.Synth.iter ~events:300 (Tracebin.write w);
  Tracebin.flush w;
  let clean = Buffer.contents buf in
  let rng = Random.State.make [| 7 |] in
  for round = 1 to 500 do
    let b = Bytes.of_string clean in
    for _ = 1 to 1 + Random.State.int rng 4 do
      Bytes.set_uint8 b
        (Random.State.int rng (Bytes.length b))
        (Random.State.int rng 256)
    done;
    (* Every other round also plants a random 9-byte varint in the header
       or the first events; about half of those decode negative. *)
    if round mod 2 = 0 then begin
      let at = Random.State.int rng 64 in
      Bytes.fill b at 8 '\xff';
      Bytes.set_uint8 b (at + 8) (Random.State.int rng 128)
    end;
    let len =
      if round mod 2 = 0 then Bytes.length b
      else Random.State.int rng (Bytes.length b + 1)
    in
    decode_never_raises ~round (Bytes.sub_string b 0 len)
  done

(* The JSONL counterpart: half the planted bytes come from JSON's own
   alphabet, so mutations also reach the field decoders (a digit turned
   into '.', a quote dropped from a key) rather than only the parser. *)
let test_jsonl_mutations () =
  let clean =
    String.concat ""
      (List.map
         (fun e -> Tracebin.to_json e ^ "\n")
         (Obs.Synth.to_list ~events:300 ()))
  in
  let json_chars = {|0123456789.eE-+"\,:{}[] |} in
  let rng = Random.State.make [| 11 |] in
  for round = 1 to 500 do
    let b = Bytes.of_string clean in
    for _ = 1 to 1 + Random.State.int rng 4 do
      let c =
        if Random.State.bool rng then Char.chr (Random.State.int rng 256)
        else json_chars.[Random.State.int rng (String.length json_chars)]
      in
      Bytes.set b (Random.State.int rng (Bytes.length b)) c
    done;
    let len =
      if round mod 2 = 0 then Bytes.length b
      else Random.State.int rng (Bytes.length b + 1)
    in
    decode_never_raises ~round (Bytes.sub_string b 0 len)
  done

(* An int field holding a JSON float ([1e300], [2.7]) has no faithful int
   value, so decoding reports an error instead of truncating it. *)
let test_jsonl_non_integer_rejected () =
  let decide ~node ~decided_idx =
    Printf.sprintf
      {|{"t":1.000,"node":%s,"kind":"decide","ballot":{"n":1,"prio":0,"pid":0},"decided_idx":%s}|}
      node decided_idx
  in
  check "integers accepted" true
    (Result.is_ok (Tracebin.of_json (decide ~node:"2" ~decided_idx:"7")));
  List.iter
    (fun (label, line) ->
      check label true (Result.is_error (Tracebin.of_json line)))
    [
      ("decided_idx 1e300", decide ~node:"2" ~decided_idx:"1e300");
      ("decided_idx 2.7", decide ~node:"2" ~decided_idx:"2.7");
      ("node 2.5", decide ~node:"2.5" ~decided_idx:"7");
    ]

(* Both formats keep whole microseconds only below 2^51 us in magnitude
   (from about 2^52 us a double in milliseconds no longer resolves one);
   any other time is refused by the encoders and rejected by the
   decoders. *)
let representable t = Float.abs (Float.round (t *. 1000.0)) < 0x1p51

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_time_range () =
  let crash t = { Event.time = t; node = 0; kind = Event.Crashed } in
  let line t = Printf.sprintf {|{"t":%s,"node":0,"kind":"crash"}|} t in
  (* 2^51 us = 2251799813685.248 ms. *)
  check "just below 2^51 us accepted" true
    (Tracebin.of_json (line "2251799813685.247")
    = Ok (crash 2251799813685.247));
  List.iter
    (fun t ->
      check ("of_json t=" ^ t) true
        (Result.is_error (Tracebin.of_json (line t))))
    [
      "2251799813685.248"; "-2251799813685.248"; "1e300"; "4611686018427387903";
    ];
  let buf = Buffer.create 64 in
  let w = Tracebin.writer (Buffer.add_string buf) in
  List.iter
    (fun t ->
      let label = Printf.sprintf "t=%g" t in
      check ("to_json raises " ^ label) true
        (raises_invalid (fun () -> Tracebin.to_json (crash t)));
      check ("write raises " ^ label) true
        (raises_invalid (fun () -> Tracebin.write w (crash t))))
    [
      0x1p51 /. 1000.0; Float.of_int max_int /. 1000.0; Float.infinity; Float.nan;
    ];
  (* A refused event leaves the writer as it was. *)
  Tracebin.write w (crash 5.0);
  Tracebin.flush w;
  check "writer intact after refusals" true
    (Tracebin.fold (Tracebin.of_string (Buffer.contents buf)) ~init:[]
       ~f:(fun acc e -> e :: acc)
    = Ok [ crash 5.0 ]);
  (* A binary Crashed event (tag 15) whose time delta is 2^51 us: the
     zigzag value 2^52 as an 8-byte varint. *)
  let dt = String.make 7 '\x80' ^ "\x08" in
  check "binary time 2^51 us is an Error" true
    (Result.is_error
       (Tracebin.iter
          (Tracebin.of_string ("opxtrace1\x01\x00\x0f" ^ dt ^ "\x00"))
          ignore))

(* Random events of every kind through both formats: full-range ints,
   arbitrary byte strings (half drawn from a small pool, so the binary
   string table is hit as well as grown), and times in whole microseconds
   over the full int range, with the values around the 2^51 us bound.
   Representable events come back exactly; every other one is refused by
   both encoders, and a JSONL line carrying its time is rejected. *)
let gen_event =
  let open QCheck.Gen in
  let i =
    oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0; -1 ] ]
  in
  let s =
    oneof [ string_size ~gen:char (int_bound 12); oneofl [ "ok"; "" ] ]
  in
  let bal = map3 (fun n prio pid -> { Event.n; prio; pid }) i i i in
  let bound = 1 lsl 51 in
  let time =
    map
      (fun us -> float_of_int us /. 1000.0)
      (oneof
         [ i; oneofl [ bound - 1; bound; -(bound - 1); -bound; 2 * bound + 1 ] ])
  in
  int_bound (Event.num_kinds - 1) >>= fun tag ->
  i >>= fun x ->
  i >>= fun y ->
  i >>= fun z ->
  i >>= fun u ->
  i >>= fun v ->
  s >>= fun str ->
  bal >>= fun b ->
  time >>= fun time ->
  i >>= fun node ->
  let kind : Event.kind =
    match tag with
    | 0 -> Ballot_increment b
    | 1 -> Leader_elected b
    | 2 -> Leader_changed b
    | 3 -> Prepare_round { b; log_idx = x; decided_idx = y }
    | 4 -> Promise_sent { b; log_idx = x; decided_idx = y }
    | 5 -> Accept_sent { b; start_idx = x; count = y }
    | 6 -> Accepted_idx { b; log_idx = x }
    | 7 -> Decided { b; decided_idx = x }
    | 8 -> Proposed { log_idx = x; cmd_id = y }
    | 9 -> Batch_flush { entries = x; followers = y; cap = z; trigger = str }
    | 10 -> Cap_change { cap_from = x; cap_to = y }
    | 11 -> Session_drop { peer = x; session = y }
    | 12 -> Session_up { peer = x; session = y }
    | 13 -> Link_cut { a = x; b = y }
    | 14 -> Link_heal { a = x; b = y }
    | 15 -> Crashed
    | 16 -> Recovered
    | 17 -> Reconfig { config_id = x; milestone = str }
    | 18 -> Msg_send { dst = x; size = y; send_id = z; lc = u }
    | 19 -> Msg_deliver { src = x; size = y; send_id = z; lc = u }
    | 20 ->
        Msg_drop { src = x; dst = y; reason = str; session = u; send_id = v }
    | 21 -> Snapshot_taken { idx = x; bytes = y }
    | 22 -> Snapshot_installed { idx = x; bytes = y }
    | 23 -> Log_trimmed { upto = x; entries = y }
    | 24 -> Chaos_fault { step = x; fault = str }
    | 25 -> Chaos_invoke { client = x; op_id = y; op = str }
    | 26 -> Chaos_response { client = x; op_id = y; result = str }
    | 27 -> Chaos_timeout { client = x; op_id = y }
    | tag -> failwith (Printf.sprintf "gen_event: add kind tag %d" tag)
  in
  return { Event.time; node; kind }

let decode_list s =
  let acc = ref [] in
  match Tracebin.iter (Tracebin.of_string s) (fun e -> acc := e :: !acc) with
  | Ok () -> List.rev !acc
  | Error m -> failwith m

let prop_round_trip =
  QCheck.Test.make ~name:"tracebin round trip, every kind, both formats"
    ~count:500
    (QCheck.make
       ~print:(fun es -> String.concat "\n" (List.map Tracebin.to_json es))
       QCheck.Gen.(list_size (int_range 1 20) gen_event))
    (fun events ->
      let buf = Buffer.create 256 and jsonl = Buffer.create 256 in
      let w = Tracebin.writer (Buffer.add_string buf) in
      let kept =
        List.filter
          (fun (e : Event.t) ->
            if representable e.time then begin
              Tracebin.write w e;
              Buffer.add_string jsonl (Tracebin.to_json e ^ "\n");
              true
            end
            else
              (* [to_json] of the same event at time 0 starts with the
                 11 bytes {"t":0.000, which carry its time. *)
              let rest = Tracebin.to_json { e with time = 0.0 } in
              let line =
                Printf.sprintf {|{"t":%.3f,|} e.time
                ^ String.sub rest 11 (String.length rest - 11)
              in
              if not (raises_invalid (fun () -> Tracebin.write w e)) then
                QCheck.Test.fail_reportf "write accepted time %h" e.time
              else if not (raises_invalid (fun () -> Tracebin.to_json e)) then
                QCheck.Test.fail_reportf "to_json accepted time %h" e.time
              else if Result.is_ok (Tracebin.of_json line) then
                QCheck.Test.fail_reportf "of_json accepted %s" line
              else false)
          events
      in
      Tracebin.flush w;
      decode_list (Buffer.contents buf) = kept
      && decode_list (Buffer.contents jsonl) = kept)

(* ------------------------- profiler ------------------------- *)

module Profile = Obs.Profile

let test_profile_scoping () =
  let clock = ref 0.0 in
  Profile.set_clock (fun () -> !clock);
  let (), root =
    Profile.with_profile (fun () ->
        for _ = 1 to 3 do
          Profile.wrap "outer" (fun () ->
              clock := !clock +. 10.0;
              Profile.wrap "inner" (fun () -> ()))
        done;
        Profile.wrap "other" (fun () -> ()))
  in
  Profile.set_clock (fun () -> 0.0);
  let row label =
    List.find (fun (r : Profile.row) -> r.Profile.r_label = label)
      (Profile.flat root)
  in
  Alcotest.(check int) "outer calls" 3 (row "outer").Profile.r_calls;
  Alcotest.(check int) "inner calls" 3 (row "inner").Profile.r_calls;
  Alcotest.(check int) "sibling calls" 1 (row "other").Profile.r_calls;
  (* The clock advanced inside "outer" but not inside "inner": sim time is
     attributed to the frame that was open while it moved. *)
  Alcotest.(check (float 1e-9)) "outer sim-ms" 30.0 (row "outer").Profile.r_sim_ms;
  Alcotest.(check (float 1e-9)) "inner sim-ms" 0.0 (row "inner").Profile.r_sim_ms;
  check "guard off outside a capture" true (not (Profile.on ()))

let test_profile_exception_safety () =
  let (), root =
    Profile.with_profile (fun () ->
        (try Profile.wrap "boom" (fun () -> failwith "x") with Failure _ -> ());
        Profile.wrap "after" (fun () -> ()))
  in
  let labels =
    List.map (fun (r : Profile.row) -> r.Profile.r_label) (Profile.flat root)
  in
  check "failed frame still recorded" true (List.mem "boom" labels);
  check "stack unwound: sibling not nested under the failed frame" true
    (List.mem "after" labels)

let test_profile_json_deterministic () =
  let go () =
    let (), root =
      Profile.with_profile (fun () ->
          Profile.wrap "a" (fun () -> Profile.wrap "b" (fun () -> ())))
    in
    Bench_report.Json.to_string (Profile.to_json root)
  in
  check "double capture renders identically" true (String.equal (go ()) (go ()))

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "invalid capacity" `Quick
            test_ring_invalid_capacity;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sink fan-out" `Quick test_sink_fanout;
          Alcotest.test_case "with_recording" `Quick test_with_recording;
          Alcotest.test_case "event json" `Quick test_event_json;
          Alcotest.test_case "sampler decides at the guard" `Quick
            test_sampler_decides_at_guard;
        ] );
      ( "metric",
        [
          Alcotest.test_case "histogram bucketing" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "clean trace passes" `Quick test_invariants_pass;
          Alcotest.test_case "two leaders one ballot" `Quick
            test_two_leaders_one_ballot;
          Alcotest.test_case "decided regression" `Quick
            test_decided_regression_detected;
          Alcotest.test_case "monotone across snapshot install" `Quick
            test_monotone_across_install;
        ] );
      ( "causal",
        [
          Alcotest.test_case "json round-trip all kinds" `Quick
            test_event_json_roundtrip;
          Alcotest.test_case "send/deliver pairing" `Quick test_causal_pair;
          Alcotest.test_case "lamport violations" `Quick test_lamport_violation;
          Alcotest.test_case "open-send cap" `Quick test_causal_cap;
          Alcotest.test_case "critical path" `Quick test_critical_path;
        ] );
      ( "span",
        [
          Alcotest.test_case "lifecycle milestones" `Quick test_span_assembly;
          Alcotest.test_case "undecided and re-proposal" `Quick
            test_span_undecided_and_reproposal;
        ] );
      ( "health",
        [
          Alcotest.test_case "stall trigger and clear" `Quick
            test_health_stall_edges;
          Alcotest.test_case "churn trigger and clear" `Quick
            test_health_churn_edges;
          Alcotest.test_case "suspect trigger and clear" `Quick
            test_health_suspect_edges;
          Alcotest.test_case "recovery episodes" `Quick
            test_health_recovery_episode;
        ] );
      ( "tracebin",
        [
          Alcotest.test_case "negative string length" `Quick
            test_tracebin_negative_length;
          Alcotest.test_case "mutated traces never raise" `Quick
            test_tracebin_mutations;
          Alcotest.test_case "mutated jsonl never raises" `Quick
            test_jsonl_mutations;
          Alcotest.test_case "jsonl non-integer int fields rejected" `Quick
            test_jsonl_non_integer_rejected;
          Alcotest.test_case "times outside 2^51 us rejected" `Quick
            test_time_range;
          QCheck_alcotest.to_alcotest prop_round_trip;
        ] );
      ( "profile",
        [
          Alcotest.test_case "scoping and sim-time attribution" `Quick
            test_profile_scoping;
          Alcotest.test_case "exception safety" `Quick
            test_profile_exception_safety;
          Alcotest.test_case "json determinism" `Quick
            test_profile_json_deterministic;
        ] );
    ]
