(* Batch-flush policy tests at the Sequence Paxos handler level: backlog
   pipelining across flushes, the adaptive size trigger and AIMD cap, ack
   coalescing, session resets racing a half-flushed batch, and the
   degeneracy property (adaptive with min = max and ack_every = 1
   produces the exact message trace of the fixed policy).
   The transport is the same hand-driven queue as test_sequence_paxos, plus
   a trace of every send so message counts and batch sizes can be
   asserted. *)

module Sp = Omnipaxos.Sequence_paxos
module Entry = Omnipaxos.Entry
module Ballot = Omnipaxos.Ballot
module B = Omnipaxos.Batching

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cmd i = Entry.Cmd (Replog.Command.noop i)
let ballot n pid = { Ballot.n; priority = 0; pid }

type harness = {
  nodes : Sp.t array;
  queues : (int * int * Sp.msg) Queue.t;
  blocked : (int * int, unit) Hashtbl.t;
  trace : (int * int * Sp.msg) list ref;  (* every send, newest first *)
}

let make ?(n = 3) ~batching () =
  let queues = Queue.create () in
  let blocked = Hashtbl.create 4 in
  let trace = ref [] in
  let nodes =
    Array.init n (fun id ->
        let peers = List.filter (fun j -> j <> id) (List.init n Fun.id) in
        Sp.create ~id ~peers
          ~persistent:(Sp.fresh_persistent ())
          ~batching
          ~send:(fun ~dst m ->
            trace := (id, dst, m) :: !trace;
            Queue.add (id, dst, m) queues)
          ())
  in
  { nodes; queues; blocked; trace }

let deliver h =
  let made_progress = ref true in
  while !made_progress do
    made_progress := false;
    let pending = Queue.length h.queues in
    for _ = 1 to pending do
      let src, dst, m = Queue.pop h.queues in
      (* A blocked link LOSES its messages (a dropped session, not a slow
         one) — resynchronisation must come from the session-reset path. *)
      if not (Hashtbl.mem h.blocked (src, dst)) then begin
        made_progress := true;
        Sp.handle h.nodes.(dst) ~src m
      end
    done
  done

let flush_all h =
  Array.iter Sp.flush h.nodes;
  deliver h

let elect h =
  Sp.handle_leader h.nodes.(0) (ballot 1 0);
  deliver h

let ids_of node =
  List.filter_map
    (function
      | Entry.Cmd c -> Some c.Replog.Command.id
      | Entry.Stop_sign _ -> None)
    (Sp.read_decided node ~from:0)

let accepts_in trace =
  List.filter_map
    (function
      | _, _, Sp.Accept { entries; _ } -> Some (Replog.Log.slice_length entries)
      | _ -> None)
    trace

let accepted_count trace =
  List.length
    (List.filter (function _, _, Sp.Accepted _ -> true | _ -> false) trace)

(* ---------------- backlog pipelining ---------------- *)

(* A backlog larger than one batch must replicate as a pipeline of capped
   batches across successive flushes — no entry skipped, none oversized. *)
let test_backlog_pipelines_across_flushes () =
  let batching = { B.fixed with B.max_batch = 3; min_batch = 3 } in
  let h = make ~batching () in
  elect h;
  for i = 0 to 9 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  h.trace := [];
  let flushes = ref 0 in
  while Sp.decided_idx h.nodes.(2) < 10 && !flushes < 20 do
    incr flushes;
    flush_all h
  done;
  check "every node decided the full backlog" true
    (Array.for_all (fun nd -> ids_of nd = List.init 10 Fun.id) h.nodes);
  check "no Accept exceeded the cap" true
    (List.for_all (fun len -> len <= 3) (accepts_in !(h.trace)));
  check "the backlog needed several batches" true
    (List.length (accepts_in !(h.trace)) >= 8)
(* 10 entries / cap 3 = 4 batches per follower x 2 followers *)

(* ---------------- adaptive size trigger + AIMD ---------------- *)

(* Under the adaptive policy a proposal burst reaching the current cap is
   flushed (and can decide) without any tick; a full flush doubles the
   cap. The test never calls [flush], so no tick flush can help. *)
let test_eager_flush_without_tick () =
  let batching =
    {
      B.adaptive = true;
      max_batch = 4096;
      min_batch = 2;
      ack_every = 1;
    }
  in
  let h = make ~batching () in
  elect h;
  check_int "cap starts at min_batch" 2 (Sp.batch_cap h.nodes.(0));
  ignore (Sp.propose h.nodes.(0) (cmd 0));
  ignore (Sp.propose h.nodes.(0) (cmd 1));
  (* Size trigger fired inside [propose]: no flush call, yet the batch is
     already on the wire. *)
  deliver h;
  check_int "burst decided with zero ticks" 2 (Sp.decided_idx h.nodes.(1));
  check "full flush doubled the cap" true (Sp.batch_cap h.nodes.(0) > 2)

(* Once the backlog drains, tick flushes halve the cap back down to
   min_batch, so a subsequent light workload ships small frames again. *)
let test_cap_decays_when_drained () =
  let batching =
    {
      B.adaptive = true;
      max_batch = 4096;
      min_batch = 2;
      ack_every = 1;
    }
  in
  let h = make ~batching () in
  elect h;
  for i = 0 to 31 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  flush_all h;
  flush_all h;
  check "heavy burst grew the cap" true (Sp.batch_cap h.nodes.(0) > 2);
  for _ = 1 to 10 do
    flush_all h
  done;
  check_int "idle ticks decayed the cap to min_batch" 2
    (Sp.batch_cap h.nodes.(0))

(* Followers coalesce Accepted acks: one lone entry is appended silently
   and only acknowledged by the follower's next tick sweep. *)
let test_ack_coalescing_defers_to_tick () =
  let batching =
    {
      B.adaptive = true;
      max_batch = 4096;
      min_batch = 64;
      ack_every = 3;
    }
  in
  let h = make ~batching () in
  elect h;
  ignore (Sp.propose h.nodes.(0) (cmd 0));
  Sp.flush h.nodes.(0);
  h.trace := [];
  deliver h;
  check_int "ack deferred (below ack_every)" 0 (accepted_count !(h.trace));
  check_int "so nothing decided yet" 0 (Sp.decided_idx h.nodes.(0));
  (* The follower tick sweeps the deferred ack out. *)
  Sp.flush h.nodes.(1);
  Sp.flush h.nodes.(2);
  deliver h;
  check "acks swept by the follower tick" true (accepted_count !(h.trace) >= 2);
  flush_all h;
  check_int "and the entry decides" 1 (Sp.decided_idx h.nodes.(1))

(* ---------------- session reset mid-batch ---------------- *)

(* A link drops while a follower is mid-stream (it missed a batch in the
   middle of the backlog). The session reset must resynchronise the
   follower with no gap and no divergence. *)
let test_session_reset_mid_batch_resyncs () =
  let batching = { B.fixed with B.max_batch = 2; min_batch = 2 } in
  let h = make ~batching () in
  elect h;
  for i = 0 to 3 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  flush_all h;
  (* Follower 1 goes dark and misses the middle of the stream. *)
  Hashtbl.replace h.blocked (0, 1) ();
  Hashtbl.replace h.blocked (1, 0) ();
  for i = 4 to 7 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  (* Each flush ships one cap-sized batch; keep ticking until the majority
     (leader + follower 2) has decided the whole stream. *)
  let flushes = ref 0 in
  while Sp.decided_idx h.nodes.(0) < 8 && !flushes < 20 do
    incr flushes;
    flush_all h
  done;
  check_int "majority decided without node 1" 8 (Sp.decided_idx h.nodes.(0));
  check "node 1 is behind" true (Sp.log_length h.nodes.(1) < 8);
  (* The link comes back mid-batch: more proposals are in flight when the
     session reset fires on the leader side. *)
  for i = 8 to 9 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  Hashtbl.reset h.blocked;
  Sp.session_reset h.nodes.(0) ~peer:1;
  deliver h;
  let flushes = ref 0 in
  while Sp.decided_idx h.nodes.(1) < 10 && !flushes < 20 do
    incr flushes;
    flush_all h
  done;
  check "node 1 resynchronised without gaps" true
    (ids_of h.nodes.(1) = List.init 10 Fun.id);
  check "and matches the leader" true (ids_of h.nodes.(1) = ids_of h.nodes.(0))

(* ---------------- degeneracy ---------------- *)

(* With min_batch = max_batch and ack_every = 1 the adaptive policy is the
   fixed policy: same workload, byte-identical message trace. *)
let degenerate_workload batching =
  let h = make ~batching () in
  elect h;
  let burst lo hi =
    for i = lo to hi do
      ignore (Sp.propose h.nodes.(0) (cmd i))
    done;
    flush_all h
  in
  burst 0 4;
  burst 5 5;
  flush_all h;
  (* idle tick *)
  burst 6 11;
  flush_all h;
  (List.rev !(h.trace), Array.map ids_of h.nodes)

let test_adaptive_degenerates_to_fixed () =
  let degenerate =
    {
      B.adaptive = true;
      max_batch = B.fixed.B.max_batch;
      min_batch = B.fixed.B.max_batch;
      ack_every = 1;
    }
  in
  let trace_f, logs_f = degenerate_workload B.fixed in
  let trace_a, logs_a = degenerate_workload degenerate in
  check "identical message traces" true (trace_f = trace_a);
  check "identical decided logs" true (logs_f = logs_a);
  check_int "everything decided" 12 (List.length logs_f.(2))

let () =
  Alcotest.run "batching"
    [
      ( "pipelining",
        [
          Alcotest.test_case "backlog pipelines across flushes" `Quick
            test_backlog_pipelines_across_flushes;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "eager flush without tick" `Quick
            test_eager_flush_without_tick;
          Alcotest.test_case "cap decays when drained" `Quick
            test_cap_decays_when_drained;
          Alcotest.test_case "ack coalescing defers to tick" `Quick
            test_ack_coalescing_defers_to_tick;
        ] );
      ( "resync",
        [
          Alcotest.test_case "session reset mid-batch" `Quick
            test_session_reset_mid_batch_resyncs;
        ] );
      ( "degeneracy",
        [
          Alcotest.test_case "adaptive degenerates to fixed" `Quick
            test_adaptive_degenerates_to_fixed;
        ] );
    ]
