(* Messages on one directed link, in a growable ring. [head], [fly] and
   [tail] only grow; slot [i] is [i land (capacity - 1)]. Messages in
   [head, fly) have left the sender (each has, or is about to get, a
   delivery event naming this link); those in [fly, tail) wait in the
   sender's egress queue, which is empty when the bandwidth model is off.
   Delivery times on a link never decrease ([last_delivery]) and equal
   times pop in push order, so the event queue delivers a link's messages
   in ring order and a delivery event only has to name the link.

   A delivered slot is overwritten with [filler], the first message the
   link ever carried: a delivered message left in the ring would stay
   reachable from this long-lived array, and a minor collection would
   promote it. [meta] holds [meta_width] ints per slot (see the offsets
   below). *)
type 'm link = {
  src : int;
  dst : int;
  mutable msgs : 'm array;
  mutable filler : 'm option;  (* [Some] once [msgs] is allocated *)
  mutable meta : int array;
  mutable head : int;
  mutable fly : int;
  mutable tail : int;
}

let meta_width = 5
let m_session = 0
let m_size = 1
let m_send_id = 2
let m_lc = 3
let m_remaining = 4  (* bytes still to transmit *)

(* Event payloads: the kind in the low two bits (also the index into
   [dispatched]), the rest names the event:
   - timer: a slot of [timers];
   - deliver: the link [src * n + dst];
   - session reset: [(session * n + node) * n + peer];
   - egress step: [gen * n + src], the message it completes (if any) being
     [egress_done.(src)]. *)
let k_timer = 0
let k_deliver = 1
let k_session_reset = 2
let k_egress_step = 3

type 'm t = {
  n : int;
  rng : Random.State.t;
  events : Event_heap.t;
  (* An all-float record, so advancing the clock does not box. *)
  clock : Event_heap.clock;
  (* The clock boxed for readers that take a float (the tracer's and the
     profiler's clocks, [now], trace timestamps): boxed again only once the
     clock has moved, so the readers of one instant share one box. *)
  mutable now_box : float;
  (* Topology. [up.(a).(b)] is the a->b direction. *)
  up : bool array array;
  latency : float array array;
  (* Session number per unordered pair, stored in both cells. *)
  session : int array array;
  node_up : bool array;
  (* Egress model: each node's outgoing bytes drain at [egress_bw] bytes/ms,
     shared across destinations by round-robin in chunks of [egress_chunk]
     bytes — one large transfer therefore delays, but does not starve, the
     sender's other traffic (TCP flows interleave at packet granularity). *)
  egress_bw : float;
  links : 'm link array;  (* per (src, dst), index [src * n + dst] *)
  egress_busy : bool array;
  egress_rr : int array;  (* next destination to serve, per src *)
  egress_gen : int array;  (* bumped on crash to cancel stale pump chains *)
  (* Per src: the destination of the message whose last chunk is on the
     wire (its delivery is scheduled when the chunk's step fires), or -1. *)
  egress_done : int array;
  egress_step_at : Float.Array.t;  (* per src: when the chunk on the wire ends *)
  (* Per link: last scheduled delivery time, to enforce FIFO even if latency
     changes between sends. Also the time cell a delivery is pushed from. *)
  last_delivery : Float.Array.t;
  (* Timer callbacks by slot, with a stack of free slots. *)
  mutable timers : (unit -> unit) array;
  mutable timer_free : int array;
  mutable n_free : int;
  handlers : (src:int -> 'm -> unit) option array;
  session_handlers : (peer:int -> unit) option array;
  sent_bytes : int array;
  (* Causal metadata: a per-node Lamport clock (ticked on every send and
     merged on every delivery) and a network-unique id per transmission.
     Maintained unconditionally — it is a handful of integer ops, so the
     traced and untraced executions stay byte-identical. *)
  lamport : int array;
  mutable next_send_id : int;
  mutable delivered : int;
  delivered_bytes : int array;  (* per receiving node *)
  mutable delivered_bytes_total : int;
  (* Internals instrumentation (a few integer ops per event, maintained
     unconditionally like the Lamport clocks): dispatch counts per event
     class, Deliver events currently in the heap, and per-sender egress
     queue depth with its high-water mark. *)
  dispatched : int array;  (* timer / deliver / session_reset / egress *)
  mutable deliver_in_flight : int;
  egress_depth : int array;  (* per src: messages queued across all dsts *)
  egress_depth_hw : int array;
}

type heap_stats = Event_heap.stats = {
  hs_size : int;
  hs_high_water : int;
  hs_pushes : int;
  hs_pops : int;
}

let nop () = ()
let initial_timers = 16

let boxed_now t =
  if t.now_box <> t.clock.now then t.now_box <- t.clock.now;
  t.now_box

let egress_chunk = 4096

(* Deliveries pushed in time order skip the heap (see Event_heap): room for
   two messages on every link, enough for a heartbeat round and its
   replies at any n, fixed so that the lane never grows in a run. *)
let lane_capacity n = max 16 (2 * n * n)

let create ?(seed = 42) ?(latency = 0.1) ?(egress_bw = infinity) ~num_nodes
    () =
  let n = num_nodes in
  let t =
    {
    n;
    rng = Random.State.make [| seed |];
    events = Event_heap.create ~lane:(lane_capacity n) ();
    clock = { Event_heap.now = 0.0 };
    now_box = 0.0;
    up = Array.make_matrix n n true;
    latency = Array.make_matrix n n latency;
    session = Array.make_matrix n n 0;
    node_up = Array.make n true;
    egress_bw;
    links =
      Array.init (n * n) (fun link ->
          {
            src = link / n;
            dst = link mod n;
            msgs = [||];
            filler = None;
            meta = [||];
            head = 0;
            fly = 0;
            tail = 0;
          });
    egress_busy = Array.make n false;
    egress_rr = Array.make n 0;
    egress_gen = Array.make n 0;
    egress_done = Array.make n (-1);
    egress_step_at = Float.Array.make n 0.0;
    last_delivery = Float.Array.make (n * n) 0.0;
    timers = Array.make initial_timers nop;
    timer_free = Array.init initial_timers (fun i -> initial_timers - 1 - i);
    n_free = initial_timers;
    handlers = Array.make n None;
    session_handlers = Array.make n None;
    sent_bytes = Array.make n 0;
      lamport = Array.make n 0;
      next_send_id = 0;
      delivered = 0;
      delivered_bytes = Array.make n 0;
      delivered_bytes_total = 0;
      dispatched = Array.make 4 0;
      deliver_in_flight = 0;
      egress_depth = Array.make n 0;
      egress_depth_hw = Array.make n 0;
    }
  in
  (* Trace events emitted by the protocol layers carry simulated time; the
     latest-created network owns the tracer clock (runs are sequential).
     The profiler samples the same clock for its sim-time column. *)
  Obs.Trace.set_clock (fun () -> boxed_now t);
  Obs.Profile.set_clock (fun () -> boxed_now t);
  (* Binary trace headers record the run parameters of the simulation that
     produced them (the writer snapshots this at its first event). *)
  Obs.Trace.set_run_meta
    [
      ("nodes", string_of_int n);
      ("seed", string_of_int seed);
      ("latency_ms", Printf.sprintf "%g" latency);
    ];
  t

let now t = boxed_now t
let num_nodes t = t.n
let rng t = t.rng

let check_node t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Net: node %d" i)

let set_handler t i f =
  check_node t i;
  t.handlers.(i) <- Some f

let set_session_handler t i f =
  check_node t i;
  t.session_handlers.(i) <- Some f

let grow_timers t =
  let cap = Array.length t.timers in
  let timers = Array.make (2 * cap) nop in
  Array.blit t.timers 0 timers 0 cap;
  t.timers <- timers;
  (* Every slot is taken when this runs: the new ones are all free. *)
  t.timer_free <- Array.init (2 * cap) (fun i -> (2 * cap) - 1 - i);
  t.n_free <- cap

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Net.schedule: negative delay";
  if t.n_free = 0 then grow_timers t;
  t.n_free <- t.n_free - 1;
  let slot = t.timer_free.(t.n_free) in
  t.timers.(slot) <- f;
  Event_heap.push t.events ~time:(t.clock.now +. delay)
    ((slot lsl 2) lor k_timer)

let pair_connected t a b = t.up.(a).(b) && t.up.(b).(a)

(* Double a link's ring (an empty ring gets 4 slots), oldest message first.
   [msg] fills the fresh message array. *)
let grow_link l msg =
  let cap = Array.length l.msgs in
  if cap = 0 then l.filler <- Some msg;
  let cap' = if cap = 0 then 4 else 2 * cap in
  let msgs = Array.make cap' msg and meta = Array.make (cap' * meta_width) 0 in
  for k = 0 to l.tail - l.head - 1 do
    let s = (l.head + k) land (cap - 1) in
    msgs.(k) <- l.msgs.(s);
    Array.blit l.meta (s * meta_width) meta (k * meta_width) meta_width
  done;
  l.msgs <- msgs;
  l.meta <- meta;
  l.fly <- l.fly - l.head;
  l.tail <- l.tail - l.head;
  l.head <- 0

let enqueue l msg ~session ~size ~send_id ~lc =
  if l.tail - l.head = Array.length l.msgs then grow_link l msg;
  let s = l.tail land (Array.length l.msgs - 1) in
  l.msgs.(s) <- msg;
  let m = s * meta_width in
  l.meta.(m + m_session) <- session;
  l.meta.(m + m_size) <- size;
  l.meta.(m + m_send_id) <- send_id;
  l.meta.(m + m_lc) <- lc;
  l.meta.(m + m_remaining) <- size;
  l.tail <- l.tail + 1

(* Schedule the delivery of the latest message to leave [src] for [dst]:
   [latency] from now, and never before the link's previous arrival. *)
let schedule_delivery t ~src ~dst =
  let link = (src * t.n) + dst in
  let arrival = t.clock.now +. t.latency.(src).(dst) in
  let arrival = Float.max arrival (Float.Array.get t.last_delivery link) in
  Float.Array.set t.last_delivery link arrival;
  t.deliver_in_flight <- t.deliver_in_flight + 1;
  Event_heap.push_lane_cell t.events t.last_delivery link
    ((link lsl 2) lor k_deliver)

(* Transmit the next chunk of the round-robin schedule. Must be called with
   the sender idle at the current clock. *)
let pump_egress t src =
  let base = src * t.n in
  let d = ref (-1) and i = ref t.egress_rr.(src) and tries = ref 0 in
  while !d < 0 && !tries < t.n do
    let l = t.links.(base + !i) in
    if l.tail > l.fly then d := !i
    else begin
      i := (!i + 1) mod t.n;
      incr tries
    end
  done;
  if !d < 0 then t.egress_busy.(src) <- false
  else begin
    let d = !d in
    let l = t.links.(base + d) in
    let m = ((l.fly land (Array.length l.msgs - 1)) * meta_width) + m_remaining in
    let remaining = l.meta.(m) in
    let chunk = min egress_chunk (max 1 remaining) in
    (* Bytes are accounted when they leave the NIC, so windowed egress
       readings are physical. *)
    t.sent_bytes.(src) <- t.sent_bytes.(src) + chunk;
    l.meta.(m) <- remaining - chunk;
    if remaining - chunk <= 0 then begin
      t.egress_depth.(src) <- t.egress_depth.(src) - 1;
      l.fly <- l.fly + 1;
      t.egress_done.(src) <- d
    end;
    t.egress_rr.(src) <- (d + 1) mod t.n;
    t.egress_busy.(src) <- true;
    let tx = float_of_int chunk /. t.egress_bw in
    Float.Array.set t.egress_step_at src (t.clock.now +. tx);
    Event_heap.push_cell t.events t.egress_step_at src
      ((((t.egress_gen.(src) * t.n) + src) lsl 2) lor k_egress_step)
  end

let send t ~src ~dst ~size msg =
  check_node t src;
  check_node t dst;
  if size < 0 then invalid_arg "Net.send: negative size";
  if src = dst then invalid_arg "Net.send: src = dst";
  if t.node_up.(src) && t.up.(src).(dst) then begin
    let send_id = t.next_send_id in
    t.next_send_id <- send_id + 1;
    let lc = t.lamport.(src) + 1 in
    t.lamport.(src) <- lc;
    if Obs.Trace.on_message ~deliver:false send_id then
      Obs.Trace.emit_at ~time:(boxed_now t) ~node:src
        (Obs.Event.Msg_send { dst; size; send_id; lc });
    let session = t.session.(src).(dst) in
    let l = t.links.((src * t.n) + dst) in
    enqueue l msg ~session ~size ~send_id ~lc;
    if t.egress_bw = infinity then begin
      t.sent_bytes.(src) <- t.sent_bytes.(src) + size;
      l.fly <- l.tail;
      schedule_delivery t ~src ~dst
    end
    else begin
      t.egress_depth.(src) <- t.egress_depth.(src) + 1;
      if t.egress_depth.(src) > t.egress_depth_hw.(src) then
        t.egress_depth_hw.(src) <- t.egress_depth.(src);
      if not t.egress_busy.(src) then pump_egress t src
    end
  end
  else if Obs.Trace.on () then
    Obs.Trace.emit_at ~time:(boxed_now t) ~node:src
      (Obs.Event.Msg_drop
         {
           src;
           dst;
           reason = (if t.node_up.(src) then "link-down" else "src-down");
           session = t.session.(src).(dst);
           send_id = -1;
         })

let bump_session t a b =
  let s = t.session.(a).(b) + 1 in
  t.session.(a).(b) <- s;
  t.session.(b).(a) <- s;
  if Obs.Trace.on () then begin
    Obs.Trace.emit_at ~time:(boxed_now t) ~node:a
      (Obs.Event.Session_up { peer = b; session = s });
    Obs.Trace.emit_at ~time:(boxed_now t) ~node:b
      (Obs.Event.Session_up { peer = a; session = s })
  end;
  (* Notify both endpoints once the (zero-latency) reconnection completes.
     Delivered as events so handlers run in timestamp order. *)
  let notify node peer =
    Event_heap.push t.events ~time:(boxed_now t)
      (((((s * t.n) + node) * t.n) + peer) lsl 2 lor k_session_reset)
  in
  notify a b;
  notify b a

(* Trace a directional link transition; a connected pair losing its last
   direction also drops the transport session at both endpoints. *)
let trace_link_change t ~src ~dst ~was_connected ~up =
  if Obs.Trace.on () then begin
    Obs.Trace.emit_at ~time:(boxed_now t) ~node:src
      (if up then Obs.Event.Link_heal { a = src; b = dst }
       else Obs.Event.Link_cut { a = src; b = dst });
    if was_connected && not (pair_connected t src dst) then begin
      let s = t.session.(src).(dst) in
      Obs.Trace.emit_at ~time:(boxed_now t) ~node:src
        (Obs.Event.Session_drop { peer = dst; session = s });
      Obs.Trace.emit_at ~time:(boxed_now t) ~node:dst
        (Obs.Event.Session_drop { peer = src; session = s })
    end
  end

let set_link_oneway t ~src ~dst up =
  check_node t src;
  check_node t dst;
  let was_connected = pair_connected t src dst in
  let changed = t.up.(src).(dst) <> up in
  t.up.(src).(dst) <- up;
  if changed then trace_link_change t ~src ~dst ~was_connected ~up;
  if (not was_connected) && pair_connected t src dst then bump_session t src dst

let set_link t a b up =
  check_node t a;
  check_node t b;
  let was_connected = pair_connected t a b in
  if t.up.(a).(b) <> up then begin
    t.up.(a).(b) <- up;
    trace_link_change t ~src:a ~dst:b ~was_connected ~up
  end;
  if t.up.(b).(a) <> up then begin
    let was_connected = pair_connected t b a in
    t.up.(b).(a) <- up;
    trace_link_change t ~src:b ~dst:a ~was_connected ~up
  end;
  if (not was_connected) && pair_connected t a b then bump_session t a b

let link_up t a b =
  check_node t a;
  check_node t b;
  t.up.(a).(b)

let reset_session t a b =
  check_node t a;
  check_node t b;
  if a = b then invalid_arg "Net.reset_session: a = b";
  if pair_connected t a b then begin
    (* In-flight traffic of the old session is invalidated by the bump, as
       with a real TCP reset; both endpoints are notified of the new one. *)
    if Obs.Trace.on () then begin
      let s = t.session.(a).(b) in
      Obs.Trace.emit_at ~time:(boxed_now t) ~node:a
        (Obs.Event.Session_drop { peer = b; session = s });
      Obs.Trace.emit_at ~time:(boxed_now t) ~node:b
        (Obs.Event.Session_drop { peer = a; session = s })
    end;
    bump_session t a b
  end

let set_latency t a b l =
  check_node t a;
  check_node t b;
  if l < 0.0 then invalid_arg "Net.set_latency: negative";
  t.latency.(a).(b) <- l;
  t.latency.(b).(a) <- l

let partition t group1 group2 =
  List.iter (fun a -> List.iter (fun b -> set_link t a b false) group2) group1

let heal_all t =
  for a = 0 to t.n - 1 do
    for b = a + 1 to t.n - 1 do
      set_link t a b true
    done
  done

let isolate t i =
  check_node t i;
  for j = 0 to t.n - 1 do
    if j <> i then set_link t i j false
  done

let crash t i =
  check_node t i;
  t.node_up.(i) <- false;
  if Obs.Trace.on () then
    Obs.Trace.emit_at ~time:(boxed_now t) ~node:i Obs.Event.Crashed;
  t.handlers.(i) <- None;
  t.session_handlers.(i) <- None;
  (* Unsent egress data is lost with the process, including a message whose
     last chunk is on the wire: its delivery was never scheduled. *)
  let d = t.egress_done.(i) in
  if d >= 0 then begin
    let l = t.links.((i * t.n) + d) in
    l.fly <- l.fly - 1;
    t.egress_done.(i) <- -1
  end;
  for j = 0 to t.n - 1 do
    let l = t.links.((i * t.n) + j) in
    l.tail <- l.fly
  done;
  t.egress_depth.(i) <- 0;
  t.egress_busy.(i) <- false;
  t.egress_gen.(i) <- t.egress_gen.(i) + 1

let recover t i =
  check_node t i;
  t.node_up.(i) <- true;
  if Obs.Trace.on () then
    Obs.Trace.emit_at ~time:(boxed_now t) ~node:i Obs.Event.Recovered;
  (* Transport connections did not survive: bump the session with every
     currently-reachable peer so both sides observe a reconnection. *)
  for j = 0 to t.n - 1 do
    if j <> i && t.node_up.(j) && pair_connected t i j then bump_session t i j
  done

let is_up t i =
  check_node t i;
  t.node_up.(i)

let deliver t link =
  t.dispatched.(k_deliver) <- t.dispatched.(k_deliver) + 1;
  t.deliver_in_flight <- t.deliver_in_flight - 1;
  let l = t.links.(link) in
  let src = l.src and dst = l.dst in
  let s = l.head land (Array.length l.msgs - 1) in
  let msg = l.msgs.(s) in
  let m = s * meta_width in
  let session = l.meta.(m + m_session) and size = l.meta.(m + m_size) in
  let send_id = l.meta.(m + m_send_id) and lc = l.meta.(m + m_lc) in
  (match l.filler with Some f -> l.msgs.(s) <- f | None -> ());
  l.head <- l.head + 1;
  if
    t.node_up.(dst) && t.node_up.(src) && t.up.(src).(dst)
    && session = t.session.(src).(dst)
  then begin
    match t.handlers.(dst) with
    | Some h ->
        t.delivered <- t.delivered + 1;
        t.delivered_bytes.(dst) <- t.delivered_bytes.(dst) + size;
        t.delivered_bytes_total <- t.delivered_bytes_total + size;
        (* Lamport merge: the receipt happens-after both the local past
           and the send. *)
        let rlc = 1 + max t.lamport.(dst) lc in
        t.lamport.(dst) <- rlc;
        if Obs.Trace.on_message ~deliver:true send_id then
          Obs.Trace.emit_at ~time:(boxed_now t) ~node:dst
            (Obs.Event.Msg_deliver { src; size; send_id; lc = rlc });
        h ~src msg
    | None -> ()
  end
  else if Obs.Trace.on () then begin
    let reason =
      if not t.node_up.(dst) then "dst-down"
      else if not t.node_up.(src) then "src-down"
      else if not t.up.(src).(dst) then "link-down"
      else "stale-session"
    in
    Obs.Trace.emit_at ~time:(boxed_now t) ~node:dst
      (Obs.Event.Msg_drop { src; dst; reason; session; send_id })
  end

let dispatch t payload =
  let kind = payload land 3 and id = payload lsr 2 in
  if kind = k_deliver then deliver t id
  else if kind = k_timer then begin
    t.dispatched.(k_timer) <- t.dispatched.(k_timer) + 1;
    let f = t.timers.(id) in
    t.timers.(id) <- nop;
    t.timer_free.(t.n_free) <- id;
    t.n_free <- t.n_free + 1;
    f ()
  end
  else if kind = k_session_reset then begin
    t.dispatched.(k_session_reset) <- t.dispatched.(k_session_reset) + 1;
    let peer = id mod t.n and node = id / t.n mod t.n in
    let session = id / (t.n * t.n) in
    if t.node_up.(node) && session = t.session.(node).(peer) then begin
      match t.session_handlers.(node) with
      | Some h -> h ~peer
      | None -> ()
    end
  end
  else begin
    t.dispatched.(k_egress_step) <- t.dispatched.(k_egress_step) + 1;
    let src = id mod t.n and gen = id / t.n in
    if gen = t.egress_gen.(src) then begin
      let d = t.egress_done.(src) in
      if d >= 0 then begin
        t.egress_done.(src) <- -1;
        schedule_delivery t ~src ~dst:d
      end;
      pump_egress t src
    end
  end

let dispatch_label payload =
  let kind = payload land 3 in
  if kind = k_timer then "simnet/timer"
  else if kind = k_deliver then "simnet/deliver"
  else if kind = k_session_reset then "simnet/session_reset"
  else "simnet/egress"

let step t =
  if Event_heap.is_empty t.events then false
  else begin
    if Obs.Profile.on () then begin
      (* [pop_payload] advances the clock, inside the frame, so the
         sim-time column of a dispatch label accumulates the simulated time
         that passed waiting for events of that class; handler frames
         opened within (protocol adapters, flush) nest as children. The
         cold branch is duplicated rather than wrapped in a closure so the
         profiler-off path allocates nothing. *)
      Obs.Profile.enter (dispatch_label (Event_heap.min_payload t.events));
      dispatch t (Event_heap.pop_payload t.events t.clock);
      Obs.Profile.leave ()
    end
    else dispatch t (Event_heap.pop_payload t.events t.clock);
    true
  end

let run_until t deadline =
  (* [due] is false on an empty heap, so an infinite deadline returns once
     the events run out. *)
  while Event_heap.due t.events deadline do
    ignore (step t : bool)
  done;
  t.clock.now <- Float.max t.clock.now deadline

let run_for t d = run_until t (t.clock.now +. d)

let drain t = while step t do () done

let bytes_sent t i =
  check_node t i;
  t.sent_bytes.(i)

let messages_delivered t = t.delivered
let bytes_delivered t = t.delivered_bytes_total

let bytes_delivered_at t i =
  check_node t i;
  t.delivered_bytes.(i)

(* ------------------------------------------------------------------ *)
(* Internals instrumentation                                           *)
(* ------------------------------------------------------------------ *)

let heap_stats t = Event_heap.stats t.events
let lane_pops t = Event_heap.lane_pops t.events

let dispatch_counts t =
  [
    ("deliver", t.dispatched.(1));
    ("egress_step", t.dispatched.(3));
    ("session_reset", t.dispatched.(2));
    ("timer", t.dispatched.(0));
  ]

let deliver_in_flight t = t.deliver_in_flight

let link_queue_depth t ~src ~dst =
  check_node t src;
  check_node t dst;
  let l = t.links.((src * t.n) + dst) in
  l.tail - l.fly

let egress_queue_depth t i =
  check_node t i;
  t.egress_depth.(i)

let egress_queue_high_water t i =
  check_node t i;
  t.egress_depth_hw.(i)

(* Mirror the current internals into the process-wide metric registry.
   Called by samplers (the dashboard, `opx metrics` snapshots) rather than
   from the hot path, so per-event cost stays at plain integer updates. *)
let publish_metrics t =
  let module M = Obs.Metric in
  let set name v = M.Gauge.set M.Registry.(gauge default name) v in
  let seti name v = set name (float_of_int v) in
  let hs = heap_stats t in
  seti "simnet.heap.size" hs.hs_size;
  seti "simnet.heap.high_water" hs.hs_high_water;
  seti "simnet.heap.pushes" hs.hs_pushes;
  seti "simnet.heap.pops" hs.hs_pops;
  seti "simnet.heap.lane_pops" (lane_pops t);
  List.iter
    (fun (name, v) -> seti ("simnet.dispatch." ^ name) v)
    (dispatch_counts t);
  seti "simnet.deliver.in_flight" t.deliver_in_flight;
  let queued = ref 0 and hw = ref 0 in
  for i = 0 to t.n - 1 do
    queued := !queued + t.egress_depth.(i);
    hw := max !hw t.egress_depth_hw.(i)
  done;
  seti "simnet.egress.queued" !queued;
  seti "simnet.egress.queued_high_water" !hw
