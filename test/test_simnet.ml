(* Unit and property tests for the discrete-event network simulator:
   delivery semantics, FIFO sessions, partitions, crash/recovery, the
   chunked round-robin egress model, and determinism. *)

module Net = Simnet.Net
module Heap = Simnet.Event_heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?(n = 3) ?latency ?egress_bw () =
  Net.create ?latency ?egress_bw ~num_nodes:n ()

let collect net dst log =
  Net.set_handler net dst (fun ~src m -> log := (src, m) :: !log)

(* ------------------------- event heap ------------------------- *)

(* Pop every event, returning (time, payload) pairs in pop order. *)
let drain_heap h =
  let clock = { Heap.now = 0.0 } in
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let time = Heap.min_time h in
      let p = Heap.pop_payload h clock in
      go ((time, p) :: acc)
  in
  go []

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (t, v) -> Heap.push h ~time:t v)
    [ (3.0, 3); (1.0, 1); (2.0, 2); (1.0, 10) ];
  check "next payload" true (Heap.min_payload h = 1);
  check "time order with FIFO ties" true
    (List.map snd (drain_heap h) = [ 1; 10; 2; 3 ]);
  check "empty" true (Heap.is_empty h);
  check "min_time of an empty heap is infinity" true
    (Heap.min_time h = infinity);
  check "nothing is due on an empty heap, not even at infinity" false
    (Heap.due h infinity);
  check "pop of an empty heap raises" true
    (match Heap.pop_payload h { Heap.now = 0.0 } with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_heap_many () =
  let h = Heap.create () in
  let rand = Random.State.make [| 9 |] in
  for i = 0 to 999 do
    Heap.push h ~time:(Random.State.float rand 100.0) i
  done;
  let times = List.map fst (drain_heap h) in
  check "1000 random pushes pop sorted" true
    (List.sort Float.compare times = times)

let test_heap_clock () =
  let h = Heap.create () in
  let cells = Float.Array.of_list [ 5.0; 2.0 ] in
  Heap.push_cell h cells 0 0;
  Heap.push_cell h cells 1 1;
  check "push_cell reads the time from its cell" true (Heap.min_time h = 2.0);
  check "due at the next time" true (Heap.due h 2.0);
  check "not due before it" false (Heap.due h 1.5);
  let clock = { Heap.now = 3.0 } in
  check_int "earliest first" 1 (Heap.pop_payload h clock);
  check "an earlier event does not move the clock back" true (clock.Heap.now = 3.0);
  check_int "then the later one" 0 (Heap.pop_payload h clock);
  check "a later event advances the clock" true (clock.Heap.now = 5.0)

let test_heap_stats () =
  let h = Heap.create () in
  let clock = { Heap.now = 0.0 } in
  let s = Heap.stats h in
  check "fresh heap all zero" true
    (s = { Heap.hs_size = 0; hs_high_water = 0; hs_pushes = 0; hs_pops = 0 });
  List.iter (fun t -> Heap.push h ~time:t 0) [ 1.0; 2.0; 3.0 ];
  ignore (Heap.pop_payload h clock : int);
  let s = Heap.stats h in
  check_int "size after 3 pushes, 1 pop" 2 s.Heap.hs_size;
  check_int "high-water is the peak size" 3 s.Heap.hs_high_water;
  check_int "pushes count every insertion" 3 s.Heap.hs_pushes;
  check_int "pops" 1 s.Heap.hs_pops;
  List.iter (fun t -> Heap.push h ~time:t 0) [ 4.0; 5.0 ];
  check_int "high-water advances past the old peak" 4
    (Heap.stats h).Heap.hs_high_water;
  while not (Heap.is_empty h) do
    ignore (Heap.pop_payload h clock : int)
  done;
  let s = Heap.stats h in
  check_int "drained size" 0 s.Heap.hs_size;
  check "pushes = pops when drained" true (s.Heap.hs_pushes = s.Heap.hs_pops)

(* Interleaved pushes and pops against a model: the heap pops exactly what
   a stable sort of the pending events by (time, insertion seq) puts first.
   Times come from a small set so ties are frequent. *)
let prop_heap_stable_order =
  QCheck.Test.make ~name:"heap pops in stable (time, seq) order" ~count:200
    QCheck.(list_of_size Gen.(0 -- 300) (option (int_bound 7)))
    (fun script ->
      let h = Heap.create () in
      let clock = { Heap.now = 0.0 } in
      let pending = ref [] (* (time, seq), newest first *) in
      let seq = ref 0 in
      let ok = ref true in
      let pop () =
        let expected =
          List.hd
            (List.stable_sort
               (fun (a, _) (b, _) -> Float.compare a b)
               (List.rev !pending))
        in
        let time = Heap.min_time h in
        let p = Heap.pop_payload h clock in
        if (time, p) <> expected then ok := false;
        pending := List.filter (fun e -> e <> expected) !pending
      in
      List.iter
        (function
          | Some k ->
              let time = float_of_int k /. 2.0 in
              Heap.push h ~time !seq;
              pending := (time, !seq) :: !pending;
              incr seq
          | None -> if !pending <> [] then pop ())
        script;
      while !pending <> [] do
        pop ()
      done;
      !ok && Heap.is_empty h)

(* Interleaved in-order and out-of-order pushes to the lane, pushes to
   the heap and pops, against a model: the queue pops exactly what a
   stable sort of the pending events by (time, push seq) puts first, with
   [min_time] and [min_payload] agreeing. The lane holds 4 events, so it
   also fills and overflows to the heap; times come from a small set, so
   ties between the lane and the heap are frequent. *)
type lane_op = Lane of int | Heap_push of int | Pop

let prop_lane_order =
  QCheck.Test.make ~name:"lane and heap pop in (time, seq) order" ~count:300
    QCheck.(
      make
        ~print:
          (QCheck.Print.list (function
            | Lane k -> Printf.sprintf "lane %d" k
            | Heap_push k -> Printf.sprintf "heap %d" k
            | Pop -> "pop"))
        Gen.(
          list_size (0 -- 300)
            (frequency
               [
                 (4, map (fun k -> Lane k) (int_bound 7));
                 (1, map (fun k -> Heap_push k) (int_bound 7));
                 (3, return Pop);
               ])))
    (fun script ->
      let h = Heap.create ~lane:4 () in
      let clock = { Heap.now = 0.0 } in
      let cells = Float.Array.init 8 (fun k -> float_of_int k /. 2.0) in
      let pending = ref [] (* (time, seq), newest first *) in
      let seq = ref 0 in
      let ok = ref true in
      let pop () =
        let expected =
          List.hd
            (List.stable_sort
               (fun (a, _) (b, _) -> Float.compare a b)
               (List.rev !pending))
        in
        let time = Heap.min_time h and next = Heap.min_payload h in
        let p = Heap.pop_payload h clock in
        if (time, p) <> expected || next <> p then ok := false;
        pending := List.filter (fun e -> e <> expected) !pending
      in
      let push time = pending := (time, !seq) :: !pending; incr seq in
      List.iter
        (function
          | Lane k ->
              Heap.push_lane_cell h cells k !seq;
              push (Float.Array.get cells k)
          | Heap_push k ->
              Heap.push_cell h cells k !seq;
              push (Float.Array.get cells k)
          | Pop -> if !pending <> [] then pop ())
        script;
      let high_water = (Heap.stats h).Heap.hs_high_water in
      while !pending <> [] do
        pop ()
      done;
      let s = Heap.stats h in
      !ok && Heap.is_empty h && s.Heap.hs_pops = !seq
      && s.Heap.hs_pushes = !seq
      && Heap.lane_pops h <= !seq
      && high_water <= !seq)

(* [run_until] stops when nothing is due. An empty heap's [min_time] is
   [infinity], which is [<= infinity]: a loop on that comparison would
   spin here. *)
let test_run_until_infinity () =
  let net = make () in
  Net.run_until net infinity;
  check "an empty network runs to infinity and returns" true
    (Net.now net = infinity);
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:1 "x";
  Net.run_until net infinity;
  check "the pending event ran first" true (List.map snd !log = [ "x" ])

(* ------------------------- allocation ------------------------- *)

let minor_words () = int_of_float (Gc.minor_words ())

(* Steady state: the arrays have grown to the high-water mark, so a push
   and a pop move floats and ints between slots and allocate nothing. *)
let test_heap_alloc_free () =
  let h = Heap.create () in
  let clock = { Heap.now = 0.0 } in
  let cells = Float.Array.init 64 (fun i -> float_of_int (i mod 7)) in
  for i = 0 to 63 do
    Heap.push_cell h cells i i
  done;
  let round () =
    for i = 0 to 63 do
      Heap.push h ~time:1.5 i;
      ignore (Heap.pop_payload h clock : int);
      Heap.push_cell h cells i i;
      ignore (Heap.pop_payload h clock : int)
    done
  in
  round ();
  let w0 = minor_words () in
  for _ = 1 to 100 do
    round ()
  done;
  check_int "push + pop_payload allocate nothing" 0 (minor_words () - w0);
  (* The lane: in-order pushes go to it, an out-of-order one to the heap,
     and pops take from both. *)
  let h = Heap.create ~lane:64 () in
  let round () =
    for i = 0 to 63 do
      Heap.push_lane_cell h cells i i;
      if i mod 8 = 0 then ignore (Heap.pop_payload h clock : int)
    done;
    while not (Heap.is_empty h) do
      ignore (Heap.pop_payload h clock : int)
    done
  in
  round ();
  let w0 = minor_words () in
  for _ = 1 to 100 do
    round ()
  done;
  check_int "lane push + pop_payload allocate nothing" 0 (minor_words () - w0);
  check "the lane served pops" true (Heap.lane_pops h > 0);
  check "the heap served pops" true
    (Heap.lane_pops h < (Heap.stats h).Heap.hs_pops)

(* Net.send + Net.step of a preallocated message: the message goes into
   its link's ring and the heap entry names the link, so neither side
   allocates once the ring and heap have grown. *)
let net_alloc_words ?egress_bw () =
  let net = make ?egress_bw ~n:3 () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr got);
  let msg = "m" in
  let round () =
    for _ = 1 to 8 do
      Net.send net ~src:0 ~dst:1 ~size:100 msg
    done;
    while Net.step net do
      ()
    done
  in
  round ();
  let w0 = minor_words () in
  for _ = 1 to 100 do
    round ()
  done;
  let words = minor_words () - w0 in
  check_int "every message delivered" (8 * 101) !got;
  words

let test_net_alloc_free () =
  check_int "infinite egress: send + step allocate nothing" 0
    (net_alloc_words ());
  check_int "finite egress: send + step allocate nothing" 0
    (net_alloc_words ~egress_bw:50.0 ())

(* Under a 1-in-10 sampler, a message the sampler drops costs what an
   untraced one does: the sites decide on [send_id] before they build the
   event or box the time. Send ids count from 0, so the multiples of 10
   are kept and the rest are measured; the first 1000 messages warm the
   ring and heap up. *)
let sampled_out_alloc_words ~traced =
  let net = make ~n:3 () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  let msg = "m" in
  let words = ref 0 in
  let run ~measure =
    for i = 0 to 999 do
      let w0 = minor_words () in
      Net.send net ~src:0 ~dst:1 ~size:100 msg;
      while Net.step net do
        ()
      done;
      if measure && i mod 10 <> 0 then words := !words + (minor_words () - w0)
    done
  in
  let go () =
    run ~measure:false;
    run ~measure:true
  in
  if traced then begin
    let kept = ref 0 in
    Obs.Trace.set_sampling (Some (Obs.Sampling.create ~head:0 ~rate:10 ()));
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_sampling None)
      (fun () ->
        Obs.Trace.with_sink
          ~make_sink:(fun () _ -> incr kept)
          ~close:ignore go);
    check_int "1 send and 1 deliver kept in 10" 400 !kept
  end
  else go ();
  !words

let test_sampled_out_alloc () =
  check_int "sampled-out send + step allocate what untraced ones do"
    (sampled_out_alloc_words ~traced:false)
    (sampled_out_alloc_words ~traced:true)

(* ------------------------- net instrumentation ------------------------- *)

let test_net_instrumentation () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:10 "a";
  Net.send net ~src:0 ~dst:1 ~size:10 "b";
  check_int "two deliveries in flight" 2 (Net.deliver_in_flight net);
  check_int "link queue is the sender's per-link egress buffer" 0
    (Net.link_queue_depth net ~src:0 ~dst:1);
  Net.drain net;
  check_int "in-flight drains to zero" 0 (Net.deliver_in_flight net);
  let hs = Net.heap_stats net in
  check "heap accounting balances" true
    (hs.Net.hs_pushes = hs.Net.hs_pops + hs.Net.hs_size);
  check "dispatch counts name the deliver class" true
    (List.assoc "deliver" (Net.dispatch_counts net) = 2);
  (* With bounded egress bandwidth the per-source queue is visible while
     the link serialises, and the high-water mark remembers it. *)
  let net2 = make ~egress_bw:1.0 () in
  let log2 = ref [] in
  collect net2 1 log2;
  (* The first message starts transmitting immediately (and a sub-chunk
     message is popped from the queue right away); the ones behind a busy
     link stay queued and set the high-water mark. *)
  Net.send net2 ~src:0 ~dst:1 ~size:100 "slow1";
  Net.send net2 ~src:0 ~dst:1 ~size:100 "slow2";
  Net.send net2 ~src:0 ~dst:1 ~size:100 "slow3";
  check_int "messages behind the busy link stay queued" 2
    (Net.egress_queue_depth net2 0);
  Net.drain net2;
  check_int "egress queue drains" 0 (Net.egress_queue_depth net2 0);
  check "egress high-water survives the drain" true
    (Net.egress_queue_high_water net2 0 >= 2);
  (* publish_metrics mirrors the counters into the default registry. *)
  Obs.Metric.Registry.clear Obs.Metric.Registry.default;
  Net.publish_metrics net;
  let gauge n =
    int_of_float
      (Obs.Metric.Gauge.value (Obs.Metric.Registry.gauge Obs.Metric.Registry.default n))
  in
  check_int "published dispatch gauge" 2 (gauge "simnet.dispatch.deliver");
  check_int "published heap pushes" (Net.heap_stats net).Net.hs_pushes
    (gauge "simnet.heap.pushes");
  Obs.Metric.Registry.clear Obs.Metric.Registry.default

(* ------------------------- delivery ------------------------- *)

let test_basic_delivery () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:10 "hello";
  Net.drain net;
  check "delivered" true (!log = [ (0, "hello") ]);
  check_int "messages delivered" 1 (Net.messages_delivered net)

let test_latency_timing () =
  let net = make ~latency:5.0 () in
  let at = ref 0.0 in
  Net.set_handler net 1 (fun ~src:_ _ -> at := Net.now net);
  Net.send net ~src:0 ~dst:1 ~size:1 ();
  Net.drain net;
  check "arrives after one-way latency" true (!at = 5.0)

let test_fifo_per_link () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  for i = 0 to 99 do
    Net.send net ~src:0 ~dst:1 ~size:8 i
  done;
  Net.drain net;
  check "FIFO order" true (List.rev_map snd !log = List.init 100 Fun.id)

let test_partition_drops () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.set_link net 0 1 false;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.drain net;
  check "dropped" true (!log = []);
  Net.set_link net 0 1 true;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.drain net;
  check_int "delivered after heal" 1 (List.length !log)

let test_in_flight_dropped_on_cut () =
  let net = make ~latency:10.0 () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.schedule net ~delay:5.0 (fun () -> Net.set_link net 0 1 false);
  Net.drain net;
  check "in-flight message lost when the link goes down" true (!log = [])

let test_one_way_cut () =
  let net = make () in
  let fwd = ref [] and back = ref [] in
  collect net 1 fwd;
  collect net 0 back;
  Net.set_link_oneway net ~src:0 ~dst:1 false;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.send net ~src:1 ~dst:0 ~size:8 ();
  Net.drain net;
  check "forward dropped" true (!fwd = []);
  check_int "reverse delivered" 1 (List.length !back)

let test_session_reset_on_heal () =
  let net = make () in
  let resets = ref [] in
  Net.set_session_handler net 0 (fun ~peer -> resets := (0, peer) :: !resets);
  Net.set_session_handler net 1 (fun ~peer -> resets := (1, peer) :: !resets);
  Net.set_link net 0 1 false;
  Net.drain net;
  check "no reset on cut" true (!resets = []);
  Net.set_link net 0 1 true;
  Net.drain net;
  check "both endpoints notified on reconnection" true
    (List.sort compare !resets = [ (0, 1); (1, 0) ])

let test_session_invalidates_old_messages () =
  let net = make ~latency:10.0 () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:8 "old";
  (* Cut and restore while the message is in flight: the session bump must
     invalidate it even though the link is up again at delivery time. *)
  Net.schedule net ~delay:2.0 (fun () -> Net.set_link net 0 1 false);
  Net.schedule net ~delay:4.0 (fun () -> Net.set_link net 0 1 true);
  Net.drain net;
  check "message of the old session dropped" true (!log = [])

let test_crash_and_recover () =
  let net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.crash net 1;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.drain net;
  check "no delivery to crashed node" true (!log = []);
  check "is_up reflects crash" true (not (Net.is_up net 1));
  Net.recover net 1;
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.drain net;
  check_int "delivered after recovery" 1 (List.length !log)

(* ------------------------- egress model ------------------------- *)

let test_egress_serialisation () =
  (* 1000 bytes/ms: a 10_000-byte message takes 10 ms + latency. *)
  let net = make ~latency:1.0 ~egress_bw:1000.0 () in
  let at = ref 0.0 in
  Net.set_handler net 1 (fun ~src:_ _ -> at := Net.now net);
  Net.send net ~src:0 ~dst:1 ~size:10_000 ();
  Net.drain net;
  check "delivery = tx time + latency" true (abs_float (!at -. 11.0) < 0.01)

let test_egress_no_starvation () =
  (* A huge transfer to node 1 must not starve a small message to node 2:
     round-robin interleaving bounds its delay to ~one chunk. *)
  let net = make ~latency:0.0 ~egress_bw:1000.0 () in
  let small_at = ref infinity in
  Net.set_handler net 2 (fun ~src:_ _ -> small_at := Net.now net);
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 ~size:1_000_000 ();
  Net.send net ~src:0 ~dst:2 ~size:100 ();
  Net.drain net;
  check "small message interleaves with the bulk transfer" true
    (!small_at < 20.0)

let test_egress_shares_bandwidth () =
  (* Two equal transfers to different destinations finish at about the same
     time, at half rate each. *)
  let net = make ~latency:0.0 ~egress_bw:1000.0 () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.set_handler net 1 (fun ~src:_ _ -> t1 := Net.now net);
  Net.set_handler net 2 (fun ~src:_ _ -> t2 := Net.now net);
  Net.send net ~src:0 ~dst:1 ~size:50_000 ();
  Net.send net ~src:0 ~dst:2 ~size:50_000 ();
  Net.drain net;
  check "both finish near 100ms" true
    (abs_float (!t1 -. 100.0) < 10.0 && abs_float (!t2 -. 100.0) < 10.0)

let test_bytes_accounted_at_transmission () =
  let net = make ~latency:0.0 ~egress_bw:1000.0 () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 ~size:10_000 ();
  Net.run_until net 5.0;
  let sent_half = Net.bytes_sent net 0 in
  Net.drain net;
  (* Chunks are accounted when they start transmitting, so the reading can
     lead by up to one chunk (4 KiB). *)
  check "about half transmitted at half time" true
    (sent_half >= 4_000 && sent_half <= 9_000);
  check_int "all bytes accounted at the end" 10_000 (Net.bytes_sent net 0)

let test_crash_clears_egress () =
  let net = make ~latency:0.0 ~egress_bw:1000.0 () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:100_000 ();
  Net.schedule net ~delay:10.0 (fun () -> Net.crash net 0);
  Net.drain net;
  check "transfer aborted by sender crash" true (!log = [])

(* A message whose last chunk is on the wire when the sender crashes is
   lost with it (its delivery was never scheduled), queued ones too; after
   recovery the link carries new messages normally. *)
let test_crash_mid_chunk () =
  let net = make ~latency:1.0 ~egress_bw:10.0 () in
  let log = ref [] in
  collect net 1 log;
  Net.send net ~src:0 ~dst:1 ~size:10 "on-the-wire";
  Net.send net ~src:0 ~dst:1 ~size:10 "queued";
  check_int "one message queued behind the wire" 1
    (Net.link_queue_depth net ~src:0 ~dst:1);
  Net.run_until net 0.5;
  Net.crash net 0;
  check_int "crash empties the link queue" 0
    (Net.link_queue_depth net ~src:0 ~dst:1);
  Net.recover net 0;
  Net.send net ~src:0 ~dst:1 ~size:10 "after";
  Net.drain net;
  check "only the post-recovery message arrives" true
    (List.map snd !log = [ "after" ]);
  check_int "nothing left in flight" 0 (Net.deliver_in_flight net)

(* ------------------------- determinism ------------------------- *)

let run_deterministic seed =
  let net = Net.create ~seed ~num_nodes:4 () in
  let trace = ref [] in
  for dst = 0 to 3 do
    Net.set_handler net dst (fun ~src m ->
        trace := (Net.now net, src, dst, m) :: !trace;
        (* Random fan-out keeps the RNG in the loop. *)
        if m > 0 then
          Net.send net ~src:dst
            ~dst:(Random.State.int (Net.rng net) 4 |> fun d ->
                  if d = dst then (d + 1) mod 4 else d)
            ~size:8 (m - 1))
  done;
  Net.send net ~src:0 ~dst:1 ~size:8 32;
  Net.drain net;
  !trace

let test_determinism () =
  check "same seed, same trace" true
    (run_deterministic 5 = run_deterministic 5);
  check "different seed, different trace" true
    (run_deterministic 5 <> run_deterministic 6)

(* ------------------------- properties ------------------------- *)

(* FIFO per link holds under random sizes and random link flapping. *)
let prop_fifo_under_flapping =
  QCheck.Test.make ~name:"per-link delivery order is FIFO under flapping"
    ~count:50
    QCheck.(list (pair (int_bound 2000) bool))
    (fun script ->
      let net = Net.create ~latency:0.3 ~egress_bw:500.0 ~num_nodes:2 () in
      let received = ref [] in
      Net.set_handler net 1 (fun ~src:_ m -> received := m :: !received);
      List.iteri
        (fun i (size, flap) ->
          Net.schedule net ~delay:(float_of_int i)
            (fun () ->
              if flap then Net.set_link net 0 1 (not (Net.link_up net 0 1));
              Net.send net ~src:0 ~dst:1 ~size i))
        script;
      Net.drain net;
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      increasing (List.rev !received))

let () =
  Alcotest.run "simnet"
    [
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "many" `Quick test_heap_many;
          Alcotest.test_case "stats" `Quick test_heap_stats;
          Alcotest.test_case "clock and time cells" `Quick test_heap_clock;
          Alcotest.test_case "run_until infinity returns" `Quick
            test_run_until_infinity;
          QCheck_alcotest.to_alcotest prop_heap_stable_order;
          QCheck_alcotest.to_alcotest prop_lane_order;
          Alcotest.test_case "push + pop allocate nothing" `Quick
            test_heap_alloc_free;
          Alcotest.test_case "send + step allocate nothing" `Quick
            test_net_alloc_free;
          Alcotest.test_case "sampled-out send + step allocate as untraced"
            `Quick test_sampled_out_alloc;
          Alcotest.test_case "net instrumentation" `Quick
            test_net_instrumentation;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_basic_delivery;
          Alcotest.test_case "latency" `Quick test_latency_timing;
          Alcotest.test_case "fifo" `Quick test_fifo_per_link;
          Alcotest.test_case "partition drops" `Quick test_partition_drops;
          Alcotest.test_case "in-flight dropped on cut" `Quick
            test_in_flight_dropped_on_cut;
          Alcotest.test_case "one-way cut" `Quick test_one_way_cut;
          Alcotest.test_case "session reset on heal" `Quick
            test_session_reset_on_heal;
          Alcotest.test_case "session invalidates in-flight" `Quick
            test_session_invalidates_old_messages;
          Alcotest.test_case "crash and recover" `Quick test_crash_and_recover;
        ] );
      ( "egress",
        [
          Alcotest.test_case "serialisation" `Quick test_egress_serialisation;
          Alcotest.test_case "no starvation" `Quick test_egress_no_starvation;
          Alcotest.test_case "bandwidth sharing" `Quick
            test_egress_shares_bandwidth;
          Alcotest.test_case "bytes at transmission" `Quick
            test_bytes_accounted_at_transmission;
          Alcotest.test_case "crash clears egress" `Quick
            test_crash_clears_egress;
          Alcotest.test_case "crash with a chunk on the wire" `Quick
            test_crash_mid_chunk;
        ] );
      ( "determinism",
        [ Alcotest.test_case "trace equality" `Quick test_determinism ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_fifo_under_flapping ] );
    ]
