(* Happens-before structure of a trace. Simnet stamps every transmission
   with a network-unique send id and a Lamport clock, so a recorded stream
   pairs into (send, deliver) edges: the causal DAG is those edges plus each
   node's local event order. Everything here is a deterministic function of
   the event stream. *)

(* Streaming happens-before check: one table of open sends (send id ->
   Lamport clock at send) serves both the (send, deliver) pairing counts and
   the clock audit. A deliver removes its send: matched, it is an edge and
   its clock must exceed the send's; unmatched, it is an orphan (ring loss)
   and has nothing to be checked against. Independently, each node's message
   clocks must strictly increase in stream order. The clock audit latches
   its first violation.

   The table is capped: when full, the oldest open send is evicted and
   counted as unmatched — in a healthy run a send is matched within one
   network delay, so the live set is O(messages in flight), and the cap only
   bites on pathological traces. An evicted send's late delivery counts as
   an orphan and goes unchecked, which only weakens detection, never
   fabricates a violation. Eviction order comes from a FIFO queue of send
   ids with lazy deletion (matched ids still sit in the queue and are
   skipped when popped). *)
module Monitor = struct
  type t = {
    sends : (int, int) Hashtbl.t;  (* open send_id -> lamport clock *)
    order : int Queue.t;  (* insertion order, lazily pruned *)
    cap : int;
    last_lc : (int, int) Hashtbl.t;  (* node -> last message clock *)
    mutable edges : int;
    mutable orphans : int;
    mutable evicted : int;
    mutable error : string option;  (* first violation wins *)
  }

  let create ?(cap = max_int) () =
    if cap <= 0 then invalid_arg "Causal.Monitor.create: cap must be positive";
    {
      sends = Hashtbl.create 1024;
      order = Queue.create ();
      cap;
      last_lc = Hashtbl.create 16;
      edges = 0;
      orphans = 0;
      evicted = 0;
      error = None;
    }

  let rec evict_one t =
    match Queue.take_opt t.order with
    | None -> ()
    | Some id ->
        if Hashtbl.mem t.sends id then begin
          Hashtbl.remove t.sends id;
          t.evicted <- t.evicted + 1
        end
        else evict_one t (* stale queue entry: already matched *)

  let violation t msg = if Option.is_none t.error then t.error <- Some msg

  let check_node_order t (e : Event.t) lc =
    (match Hashtbl.find_opt t.last_lc e.node with
    | Some prev when lc <= prev ->
        violation t
          (Printf.sprintf "node %d clock not increasing: %d then %d at t=%.3f"
             e.node prev lc e.time)
    | Some _ | None -> ());
    Hashtbl.replace t.last_lc e.node lc

  let observe t (e : Event.t) =
    match e.kind with
    | Event.Msg_send { send_id; lc; _ } ->
        if
          Hashtbl.length t.sends >= t.cap && not (Hashtbl.mem t.sends send_id)
        then evict_one t;
        Hashtbl.replace t.sends send_id lc;
        Queue.push send_id t.order;
        check_node_order t e lc
    | Event.Msg_deliver { send_id; lc; _ } ->
        (match Hashtbl.find_opt t.sends send_id with
        | Some slc ->
            Hashtbl.remove t.sends send_id;
            t.edges <- t.edges + 1;
            if lc <= slc then
              violation t
                (Printf.sprintf
                   "deliver #%d at node %d has lc %d <= send lc %d" send_id
                   e.node lc slc)
        | None -> t.orphans <- t.orphans + 1);
        check_node_order t e lc
    (* Event-stream filter: only message events carry causal stamps. *)
    | _ [@lint.allow "D4"] -> ()

  let edges t = t.edges

  let unmatched_sends t = Hashtbl.length t.sends + t.evicted
  (* Open sends still live plus those evicted by the cap — both were sent
     and never seen delivered. *)

  let orphan_delivers t = t.orphans
  let clocks t = match t.error with None -> Ok () | Some m -> Error m
end

(* Causal predecessor walk. The predecessor of a delivery is its matching
   send; the predecessor of anything else is the previous event on the same
   node. Walking back from a [Decided] event therefore yields the chain of
   events that gated the decision — the critical path. The walk stops when
   [stop] holds at the current event, or after [max_len] hops. Returns
   indices into [events], oldest first (the target is last). *)
let critical_path ?(max_len = 100_000) (events : Event.t array) ~target ~stop
    =
  let n = Array.length events in
  if target < 0 || target >= n then invalid_arg "Causal.critical_path";
  (* prev_same_node.(i): index of the latest j < i with events.(j).node =
     events.(i).node, or -1. *)
  let prev_same_node = Array.make n (-1) in
  let last_seen : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i (e : Event.t) ->
      (match Hashtbl.find_opt last_seen e.node with
      | Some j -> prev_same_node.(i) <- j
      | None -> ());
      Hashtbl.replace last_seen e.node i)
    events;
  let send_index : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  Array.iteri
    (fun i (e : Event.t) ->
      match e.kind with
      | Event.Msg_send { send_id; _ } -> Hashtbl.replace send_index send_id i
      (* Only sends anchor cross-node hops. *)
      | _ [@lint.allow "D4"] -> ())
    events;
  let rec walk acc i steps =
    let acc = i :: acc in
    if steps >= max_len || stop events.(i) then acc
    else
      let pred =
        match events.(i).kind with
        | Event.Msg_deliver { send_id; _ } -> (
            match Hashtbl.find_opt send_index send_id with
            | Some j when j < i -> j
            | Some _ | None -> prev_same_node.(i))
        (* Local events chain to the node's previous event. *)
        | _ [@lint.allow "D4"] -> prev_same_node.(i)
      in
      if pred < 0 then acc else walk acc pred (steps + 1)
  in
  walk [] target 0
