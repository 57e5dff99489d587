(* Handler-level Multi-Paxos unit tests: scout/phase-1 adoption with no-op
   gap filling, the decided-watermark learner path and its catch-up
   fallback, preemption behaviour, P1b reporting of trimmed decided slots,
   agreement across a re-election, and the allocation-free per-slot
   paths. *)

module N = Multipaxos.Node

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type harness = { node : N.t; sent : (int * N.msg) list ref }

(* [quiet] sends into a stub that allocates nothing and records nothing. *)
let make ?(id = 0) ?batching ?compaction ?(quiet = false) () =
  let sent = ref [] in
  let peers = List.filter (fun j -> j <> id) [ 0; 1; 2 ] in
  let send =
    if quiet then fun ~dst:_ _ -> () else fun ~dst m -> sent := (dst, m) :: !sent
  in
  let node =
    N.create ~id ~peers ~election_ticks:10
      ~rand:(Random.State.make [| 1 |])
      ?batching ?compaction ~send ()
  in
  { node; sent }

let cmd i = Replog.Command.noop i
let b n pid : N.ballot = { N.n; pid }

(* Drive the node until it scouts, then grant it a quorum. *)
let activate h =
  let tries = ref 0 in
  while N.state h.node <> N.Scouting && !tries < 100 do
    N.tick h.node;
    incr tries
  done;
  check "scouting" true (N.state h.node = N.Scouting);
  let ballot = N.current_ballot h.node in
  N.handle h.node ~src:1 (N.P1b { b = ballot; accepted = [] });
  check "active" true (N.is_leader h.node);
  h.sent := []

let test_scout_adopts_and_fills_gaps () =
  let h = make () in
  let tries = ref 0 in
  while N.state h.node <> N.Scouting && !tries < 100 do
    N.tick h.node;
    incr tries
  done;
  let ballot = N.current_ballot h.node in
  (* The promise reports an accepted value at slot 2 only: slots 0 and 1
     must be filled with internal no-ops before slot 2 re-decides. *)
  N.handle h.node ~src:1
    (N.P1b { b = ballot; accepted = [ (2, b 1 9, cmd 42) ] });
  check "active after quorum" true (N.is_leader h.node);
  (* Confirm the re-proposals: the peer accepts everything. *)
  let p2as =
    List.filter_map
      (function
        | _, N.P2a { start_slot; cmds; _ } when cmds <> [] ->
            Some (start_slot, List.length cmds)
        | _ -> None)
      !(h.sent)
  in
  check "re-proposed from slot 0" true (List.mem (0, 3) p2as);
  N.handle h.node ~src:1 (N.P2b { b = N.current_ballot h.node; start_slot = 0; count = 3 });
  check_int "three slots decided" 3 (N.decided_length h.node);
  let decided = Replog.Log.to_list (N.decided_log h.node) in
  check "gap slots are internal no-ops, adopted value kept" true
    (match decided with
    | [ a; bb; c ] ->
        a.Replog.Command.id < 0 && bb.Replog.Command.id < 0
        && c.Replog.Command.id = 42
    | _ -> false)

let test_watermark_promotes_accepted () =
  let h = make ~id:2 () in
  (* Act as an acceptor/learner: accept two slots from an active leader,
     then receive its watermark. *)
  N.handle h.node ~src:0
    (N.P2a { b = b 5 0; start_slot = 0; cmds = [ cmd 1; cmd 2 ] });
  check_int "nothing decided yet" 0 (N.decided_length h.node);
  N.handle h.node ~src:0 (N.Decided_watermark { b = b 5 0; upto = 2 });
  check_int "watermark promoted both slots" 2 (N.decided_length h.node)

let test_watermark_mismatch_requests_catchup () =
  let h = make ~id:2 () in
  (* Accepted under an older ballot than the watermark's: must not promote
     blindly; ask the leader for the decided values. *)
  N.handle h.node ~src:0
    (N.P2a { b = b 3 0; start_slot = 0; cmds = [ cmd 1 ] });
  N.handle h.node ~src:1 (N.Decided_watermark { b = b 7 1; upto = 1 });
  check_int "not promoted" 0 (N.decided_length h.node);
  check "catch-up requested" true
    (List.exists
       (function 1, N.Decision_req { from = 0 } -> true | _ -> false)
       !(h.sent));
  (* The full Decision resolves it. *)
  N.handle h.node ~src:1 (N.Decision { start_slot = 0; cmds = [ cmd 9 ] });
  check_int "caught up" 1 (N.decided_length h.node)

let test_preempted_steps_down_and_retries () =
  let h = make () in
  activate h;
  let old = N.current_ballot h.node in
  N.handle h.node ~src:2 (N.Preempted { b = b (old.N.n + 3) 2 });
  check "deposed" true (not (N.is_leader h.node));
  (* After the backoff it retries with a ballot above everything seen. *)
  for _ = 1 to 25 do
    N.tick h.node
  done;
  check "rescouting" true (N.state h.node = N.Scouting || N.is_leader h.node);
  check "new ballot outranks the preemptor" true
    ((N.current_ballot h.node).N.n > old.N.n + 3)

let test_p1a_lower_ballot_preempted () =
  let h = make ~id:2 () in
  N.handle h.node ~src:0 (N.P1a { b = b 5 0; from_slot = 0 });
  h.sent := [];
  N.handle h.node ~src:1 (N.P1a { b = b 4 1; from_slot = 0 });
  check "lower scout preempted with the promised ballot" true
    (List.exists
       (function 1, N.Preempted { b = bb } -> bb = b 5 0 | _ -> false)
       !(h.sent))

let test_p1b_reports_trimmed_decided_slots () =
  let h = make ~id:2 () in
  (* Decide two slots via watermark, which trims the acceptor bookkeeping. *)
  N.handle h.node ~src:0
    (N.P2a { b = b 5 0; start_slot = 0; cmds = [ cmd 1; cmd 2 ] });
  N.handle h.node ~src:0 (N.Decided_watermark { b = b 5 0; upto = 2 });
  h.sent := [];
  (* A scout starting from slot 0 must still learn those values. *)
  N.handle h.node ~src:1 (N.P1a { b = b 9 1; from_slot = 0 });
  let reported =
    List.find_map
      (function _, N.P1b { accepted; _ } -> Some accepted | _ -> None)
      !(h.sent)
  in
  match reported with
  | Some acc ->
      check_int "both decided slots reported" 2 (List.length acc);
      check "with a winning sentinel ballot" true
        (List.for_all (fun (_, (bb : N.ballot), _) -> bb.N.n = max_int) acc)
  | None -> Alcotest.fail "no P1b sent"

(* The shared batching config: an adaptive burst of [min_batch] proposals
   ships without a tick, the fixed policy waits for the tick. *)
let test_batching_config () =
  let shipped h =
    List.length
      (List.filter
         (function _, N.P2a { cmds = _ :: _; _ } -> true | _ -> false)
         !(h.sent))
  in
  let burst h n =
    for i = 1 to n do
      ignore (N.propose h.node (cmd i))
    done
  in
  let min_batch = Omnipaxos.Batching.adaptive.Omnipaxos.Batching.min_batch in
  let h = make ~batching:Omnipaxos.Batching.adaptive () in
  activate h;
  burst h (min_batch - 1);
  check_int "adaptive: below min_batch nothing ships" 0 (shipped h);
  burst h 1;
  check_int "adaptive: min_batch ships to both peers" 2 (shipped h);
  let h = make ~batching:Omnipaxos.Batching.fixed () in
  activate h;
  burst h min_batch;
  check_int "fixed: nothing ships before the tick" 0 (shipped h);
  N.tick h.node;
  check_int "fixed: the tick ships to both peers" 2 (shipped h)

let recorded_kinds f =
  let (), r = Obs.Trace.with_recording f in
  List.map (fun (e : Obs.Event.t) -> e.Obs.Event.kind) r.Obs.Trace.events

let ack h ~count =
  N.handle h.node ~src:1
    (N.P2b { b = N.current_ballot h.node; start_slot = 0; count })

(* A bare node traces its own proposals, decides and leader transitions. *)
let test_traces_propose_decide () =
  let kinds =
    recorded_kinds (fun () ->
        let h = make () in
        activate h;
        N.tick h.node;
        ignore (N.propose h.node (cmd 7));
        ack h ~count:1)
  in
  let has what p = check what true (List.exists p kinds) in
  has "leader elected" (function
    | Obs.Event.Leader_elected { pid = 0; _ } -> true
    | _ -> false);
  has "proposed" (function
    | Obs.Event.Proposed { log_idx = 0; cmd_id = 7 } -> true
    | _ -> false);
  has "decided with the ballot round as term" (function
    | Obs.Event.Decided { b = { n; pid = 0; _ }; decided_idx = 1 } -> n > 0
    | _ -> false)

(* With a compaction config, deciding [snapshot_interval] slots snapshots
   and trims locally, and both steps are traced. *)
let test_traces_compaction () =
  let first_idx = ref 0 in
  let kinds =
    recorded_kinds (fun () ->
        let h = make ~compaction:(Omnipaxos.Compaction.make 4) () in
        activate h;
        for i = 0 to 3 do
          ignore (N.propose h.node (cmd i))
        done;
        ack h ~count:4;
        first_idx := N.first_idx h.node)
  in
  check_int "trimmed at the decided length" 4 !first_idx;
  check "snapshot taken" true
    (List.exists
       (function
         | Obs.Event.Snapshot_taken { idx = 4; bytes } -> bytes > 0
         | _ -> false)
       kinds);
  check "log trimmed" true
    (List.mem (Obs.Event.Log_trimmed { upto = 4; entries = 4 }) kinds)

(* Deliver what [a] sent to [b_id] to [b], and [b]'s replies to [a_id] to
   [a], in send order, until neither has anything left for the other.
   Messages to anyone else are dropped. *)
let rec exchange a ~a_id b ~b_id =
  let outbox h dst =
    let msgs = List.rev !(h.sent) in
    h.sent := [];
    List.filter_map (fun (d, m) -> if d = dst then Some m else None) msgs
  in
  let to_b = outbox a b_id and to_a = outbox b a_id in
  if not (List.is_empty to_b && List.is_empty to_a) then begin
    List.iter (N.handle b.node ~src:a_id) to_b;
    List.iter (N.handle a.node ~src:b_id) to_a;
    exchange a ~a_id b ~b_id
  end

let decided_id h slot =
  (Replog.Log.get (N.decided_log h.node) slot).Replog.Command.id

(* A re-elected leader keeps nothing below the decided prefix it learned
   while deposed. Node 0 proposes 100 at slot 0 and gets no acks; node 1
   preempts it and decides 200 there; node 2 accepted 200 but missed that
   watermark. If node 0, active again, resent 100 at its new ballot, node 2
   would accept it and decide 100 on node 0's next watermark. *)
let test_reelected_leader_drops_stale_slots () =
  let h0 = make ~id:0 () and h2 = make ~id:2 () in
  activate h0;
  ignore (N.propose h0.node (cmd 100));
  let b2 = b ((N.current_ballot h0.node).N.n + 1) 1 in
  N.handle h2.node ~src:1
    (N.P2a { b = b2; start_slot = 0; cmds = [ cmd 200 ] });
  N.handle h0.node ~src:1 (N.Preempted { b = b2 });
  N.handle h0.node ~src:1 (N.Decided_watermark { b = b2; upto = 1 });
  N.handle h0.node ~src:1 (N.Decision { start_slot = 0; cmds = [ cmd 200 ] });
  check_int "node 0 learned slot 0" 1 (N.decided_length h0.node);
  activate h0;
  (* Past a retransmission tick of the new ballot. *)
  for _ = 1 to 25 do
    N.tick h0.node
  done;
  check "no P2a below the decided prefix" true
    (List.for_all
       (function
         | _, N.P2a { start_slot; cmds = _ :: _; _ } -> start_slot >= 1
         | _ -> true)
       !(h0.sent));
  N.session_reset h0.node ~peer:2;
  exchange h0 ~a_id:0 h2 ~b_id:2;
  check_int "node 2 decided slot 0" 1 (N.decided_length h2.node);
  check_int "node 0 holds 200 at slot 0" 200 (decided_id h0 0);
  check_int "node 2 agrees" 200 (decided_id h2 0)

(* ------------------------- allocation ------------------------- *)

let minor_words () = int_of_float (Gc.minor_words ())

(* Words allocated by the last of three rounds. The first two grow the
   slot windows and the decided log; the third stays inside them at k = 10
   (30 slots in a 32-slot log) and grows the log only on the major heap at
   k = 1000 (its 4096-slot array is too large for the minor heap).
   [prepare r] runs before round [r], unmeasured. *)
let third_round_words ?(prepare = fun _ -> ()) round =
  for r = 0 to 1 do
    prepare r;
    round r
  done;
  prepare 2;
  let w0 = minor_words () in
  round 2;
  minor_words () - w0

(* A follower handling a k-command P2a and the watermark deciding it: the
   accepted window takes the commands in place, so the words do not grow
   with k. *)
let follower_words k =
  let h = make ~id:2 ~quiet:true () in
  let ballot = b 5 0 in
  let msgs =
    Array.init 3 (fun r ->
        let start_slot = r * k in
        ( N.P2a
            {
              b = ballot;
              start_slot;
              cmds = List.init k (fun i -> cmd (start_slot + i));
            },
          N.Decided_watermark { b = ballot; upto = start_slot + k } ))
  in
  let words =
    third_round_words (fun r ->
        let p2a, watermark = msgs.(r) in
        N.handle h.node ~src:0 p2a;
        N.handle h.node ~src:0 watermark)
  in
  check_int "every slot decided" (3 * k) (N.decided_length h.node);
  words

let test_follower_alloc_flat () =
  check_int "P2a + watermark words at k = 10 and k = 1000" (follower_words 10)
    (follower_words 1000)

(* A leader handling the P2b of a k-slot batch: committing and popping the
   slot window allocates the same words whatever k. *)
let leader_ack_words k =
  let h = make ~quiet:true () in
  activate h;
  let ballot = N.current_ballot h.node in
  let acks =
    Array.init 3 (fun r -> N.P2b { b = ballot; start_slot = r * k; count = k })
  in
  let prepare r =
    for i = r * k to ((r + 1) * k) - 1 do
      ignore (N.propose h.node (cmd i))
    done
  in
  let words =
    third_round_words ~prepare (fun r -> N.handle h.node ~src:1 acks.(r))
  in
  check_int "every slot decided" (3 * k) (N.decided_length h.node);
  words

let test_leader_acks_alloc_flat () =
  check_int "P2b words at k = 10 and k = 1000" (leader_ack_words 10)
    (leader_ack_words 1000)

(* Replies from pids outside [0; 1; 2] never count: a P1b activates no
   scout and a P2b commits no slot. *)
let test_non_members_never_count () =
  let h = make () in
  while N.state h.node <> N.Scouting do
    N.tick h.node
  done;
  let ballot = N.current_ballot h.node in
  N.handle h.node ~src:5 (N.P1b { b = ballot; accepted = [] });
  check "a non-member's P1b activates nothing" true (not (N.is_leader h.node));
  N.handle h.node ~src:1 (N.P1b { b = ballot; accepted = [] });
  check "a member's P1b does" true (N.is_leader h.node);
  ignore (N.propose h.node (cmd 7));
  let p2b = N.P2b { b = ballot; start_slot = 0; count = 1 } in
  N.handle h.node ~src:5 p2b;
  check_int "a non-member's P2b commits nothing" 0 (N.decided_length h.node);
  N.handle h.node ~src:2 p2b;
  check_int "a member's P2b commits" 1 (N.decided_length h.node)

let () =
  Alcotest.run "multipaxos_unit"
    [
      ( "proposer",
        [
          Alcotest.test_case "scout adopts and fills gaps" `Quick
            test_scout_adopts_and_fills_gaps;
          Alcotest.test_case "preempted steps down and retries" `Quick
            test_preempted_steps_down_and_retries;
          Alcotest.test_case "lower-ballot scout preempted" `Quick
            test_p1a_lower_ballot_preempted;
          Alcotest.test_case "batching config" `Quick test_batching_config;
          Alcotest.test_case "re-elected leader drops stale slots" `Quick
            test_reelected_leader_drops_stale_slots;
          Alcotest.test_case "non-members never count" `Quick
            test_non_members_never_count;
        ] );
      ( "learner",
        [
          Alcotest.test_case "watermark promotes" `Quick
            test_watermark_promotes_accepted;
          Alcotest.test_case "watermark mismatch catch-up" `Quick
            test_watermark_mismatch_requests_catchup;
          Alcotest.test_case "P1b reports trimmed decided" `Quick
            test_p1b_reports_trimmed_decided_slots;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "proposals, decides and leaders" `Quick
            test_traces_propose_decide;
          Alcotest.test_case "compaction" `Quick test_traces_compaction;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "follower P2a words flat in k" `Quick
            test_follower_alloc_flat;
          Alcotest.test_case "leader P2b words flat in k" `Quick
            test_leader_acks_alloc_flat;
        ] );
    ]
