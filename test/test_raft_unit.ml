(* Handler-level Raft unit tests: vote-granting rules, the current-term
   commit restriction, log matching and conflict truncation, PreVote's
   non-disruption, CheckQuorum step-down, the shared AppendEntries batch,
   committed-entry reads and the allocation-free leader paths. Messages are
   fed directly to a single node; its outgoing messages are collected for
   inspection. *)

module N = Raft.Node
module Log = Replog.Log

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type harness = { node : N.t; sent : (int * N.msg) list ref }

(* [quiet] sends into a stub that allocates nothing and records nothing. *)
let make ?(voters = [ 0; 1; 2 ]) ?pre_vote ?check_quorum ?batching
    ?compaction ?prepare ?(quiet = false) () =
  let sent = ref [] in
  let persistent = N.fresh_persistent () in
  (match prepare with Some f -> f persistent | None -> ());
  let send =
    if quiet then fun ~dst:_ _ -> () else fun ~dst m -> sent := (dst, m) :: !sent
  in
  let node =
    N.create ~id:0 ~voters ?pre_vote ?check_quorum ?batching ?compaction
      ~election_ticks:10
      ~rand:(Random.State.make [| 1 |])
      ~persistent ~send ()
  in
  { node; sent }

let entry term id = { N.term; data = N.Cmd (Replog.Command.noop id) }

let last_vote h =
  List.find_map
    (function dst, N.Vote { granted; _ } -> Some (dst, granted) | _ -> None)
    !(h.sent)

let request_vote ?(pre = false) ~term ~last_log_idx ~last_log_term src h =
  N.handle h.node ~src
    (N.Request_vote { term; last_log_idx; last_log_term; pre_vote = pre })

let test_vote_granted_once_per_term () =
  let h = make () in
  request_vote ~term:1 ~last_log_idx:0 ~last_log_term:0 1 h;
  check "first candidate granted" true (last_vote h = Some (1, true));
  h.sent := [];
  request_vote ~term:1 ~last_log_idx:0 ~last_log_term:0 2 h;
  check "second candidate same term rejected" true
    (last_vote h = Some (2, false));
  h.sent := [];
  (* The same candidate asking again is re-granted (idempotent). *)
  request_vote ~term:1 ~last_log_idx:0 ~last_log_term:0 1 h;
  check "same candidate re-granted" true (last_vote h = Some (1, true))

let test_vote_log_up_to_date () =
  let prepare (p : N.persistent) =
    Replog.Log.append_list p.N.log [ entry 1 0; entry 2 1 ]
  in
  let h = make ~prepare () in
  request_vote ~term:3 ~last_log_idx:5 ~last_log_term:1 1 h;
  check "lower last term rejected despite longer log" true
    (last_vote h = Some (1, false));
  h.sent := [];
  request_vote ~term:3 ~last_log_idx:1 ~last_log_term:2 2 h;
  check "same term shorter log rejected" true (last_vote h = Some (2, false));
  h.sent := [];
  request_vote ~term:4 ~last_log_idx:2 ~last_log_term:2 2 h;
  check "same term equal length granted" true (last_vote h = Some (2, true))

let become_leader ?(voters = 3) h =
  (* Time out, then win the election with a vote from every peer. *)
  for _ = 1 to 25 do
    N.tick h.node
  done;
  let term = N.current_term h.node in
  for src = 1 to voters - 1 do
    N.handle h.node ~src (N.Vote { term; granted = true; pre_vote = false })
  done;
  check "is leader" true (N.is_leader h.node);
  h.sent := []

(* The commit rule: entries from previous terms are only committed once an
   entry of the current term reaches a quorum (Raft §5.4.2). *)
let test_commit_rule_current_term_only () =
  let prepare (p : N.persistent) =
    p.N.term <- 1;
    Replog.Log.append_list p.N.log [ entry 1 0; entry 1 1 ]
  in
  let h = make ~prepare () in
  become_leader h;
  (* A follower confirms the old-term entries: still nothing commits. *)
  N.handle h.node ~src:1
    (N.Append_resp { term = N.current_term h.node; success = true; match_idx = 2 });
  check_int "old-term entries not committed alone" 0 (N.commit_idx h.node);
  (* A current-term entry reaches the same quorum: everything commits. *)
  ignore (N.propose h.node (Replog.Command.noop 2));
  N.handle h.node ~src:1
    (N.Append_resp { term = N.current_term h.node; success = true; match_idx = 3 });
  check_int "commits through the current-term entry" 3 (N.commit_idx h.node)

let test_append_entries_conflict_truncation () =
  let prepare (p : N.persistent) =
    p.N.term <- 2;
    Replog.Log.append_list p.N.log [ entry 1 0; entry 1 1; entry 1 2 ]
  in
  let h = make ~prepare () in
  (* A leader of term 3 overwrites entries 1.. with term-3 entries. *)
  N.handle h.node ~src:1
    (N.Append_entries
       {
         term = 3;
         prev_idx = 0;
         prev_term = 1;
         entries = Log.slice_of_list [ entry 3 7; entry 3 8 ];
         commit_idx = 0;
       });
  check_int "conflicting tail truncated and replaced" 3
    (N.log_length h.node);
  let committed =
    N.handle h.node ~src:1
      (N.Append_entries
         {
           term = 3;
           prev_idx = 2;
           prev_term = 3;
           entries = Log.slice_of_list [];
           commit_idx = 3;
         });
    N.commit_idx h.node
  in
  check_int "commit follows the leader" 3 committed

let test_append_gap_hint () =
  let h = make () in
  N.handle h.node ~src:1
    (N.Append_entries
       {
         term = 1;
         prev_idx = 4;
         prev_term = 1;
         entries = Log.slice_of_list [ entry 1 9 ];
         commit_idx = 0;
       });
  let hint =
    List.find_map
      (function
        | _, N.Append_resp { success = false; match_idx; _ } -> Some match_idx
        | _ -> None)
      !(h.sent)
  in
  check "gap rejected with the follower's length as hint" true (hint = Some 0)

let test_pre_vote_does_not_bump_term () =
  let h = make () in
  request_vote ~pre:true ~term:5 ~last_log_idx:0 ~last_log_term:0 1 h;
  check_int "term untouched by a pre-vote" 0 (N.current_term h.node);
  (* And a pre-vote is only granted when our election timer has expired. *)
  let granted =
    List.find_map
      (function _, N.Vote { granted; pre_vote = true; _ } -> Some granted | _ -> None)
      !(h.sent)
  in
  check "pre-vote refused while we hear a leader" true (granted = Some false)

let test_check_quorum_steps_down () =
  let h = make ~check_quorum:true () in
  become_leader h;
  (* No AppendResp ever arrives: after one election timeout the leader
     abdicates. *)
  for _ = 1 to 11 do
    N.tick h.node
  done;
  check "stepped down without a quorum of responses" true
    (not (N.is_leader h.node))

(* CheckQuorum counts voters only: a PV+CQ leader whose learners alone
   answer steps down after one window. *)
let test_learners_are_no_quorum () =
  let h = make ~pre_vote:true ~check_quorum:true () in
  for _ = 1 to 25 do
    N.tick h.node
  done;
  let vote ~src ~pre term =
    N.handle h.node ~src (N.Vote { term; granted = true; pre_vote = pre })
  in
  vote ~src:1 ~pre:true (N.current_term h.node + 1);
  vote ~src:2 ~pre:false (N.current_term h.node);
  check "is leader" true (N.is_leader h.node);
  N.add_learners h.node [ 5; 6 ];
  for _ = 1 to 11 do
    N.tick h.node;
    List.iter
      (fun src ->
        N.handle h.node ~src
          (N.Append_resp
             {
               term = N.current_term h.node;
               success = true;
               match_idx = N.log_length h.node;
             }))
      [ 5; 6 ]
  done;
  check "stepped down with only learners answering" true
    (not (N.is_leader h.node))

(* A vote from a pid outside the voter set elects nobody. *)
let test_non_voter_vote_ignored () =
  let h = make () in
  for _ = 1 to 25 do
    N.tick h.node
  done;
  let vote src =
    N.handle h.node ~src
      (N.Vote { term = N.current_term h.node; granted = true; pre_vote = false })
  in
  vote 7;
  check "a non-voter's vote elects nobody" true (not (N.is_leader h.node));
  vote 1;
  check "a voter's vote does" true (N.is_leader h.node)

let test_higher_term_deposes_leader () =
  let h = make () in
  become_leader h;
  let term = N.current_term h.node in
  N.handle h.node ~src:2
    (N.Append_resp { term = term + 5; success = false; match_idx = 0 });
  check "deposed by a higher-term response" true (not (N.is_leader h.node));
  check_int "term adopted" (term + 5) (N.current_term h.node)

let test_learner_promotion_via_config () =
  let h = make () in
  become_leader h;
  ignore (N.propose h.node (Replog.Command.noop 0));
  N.add_learners h.node [ 5 ];
  check "learners lag" true (not (N.learners_caught_up h.node));
  (* The learner confirms everything; then the config entry commits. *)
  N.handle h.node ~src:5
    (N.Append_resp
       { term = N.current_term h.node; success = true; match_idx = N.log_length h.node });
  check "learner caught up" true (N.learners_caught_up h.node);
  ignore (N.propose_config h.node ~config_id:1 ~voters:[ 0; 1; 5 ]);
  let len = N.log_length h.node in
  N.handle h.node ~src:1
    (N.Append_resp { term = N.current_term h.node; success = true; match_idx = len });
  check "config committed and applied" true
    (N.committed_config h.node = Some (1, [ 0; 1; 5 ]))

(* The shared batching config: an adaptive burst of [min_batch] proposals
   ships without a tick, the fixed policy waits for the tick. *)
let test_batching_config () =
  let shipped h =
    List.length
      (List.filter
         (function
           | _, N.Append_entries { entries; _ } -> Log.slice_length entries > 0
           | _ -> false)
         !(h.sent))
  in
  let burst h n =
    for i = 1 to n do
      ignore (N.propose h.node (Replog.Command.noop i))
    done
  in
  let min_batch = Omnipaxos.Batching.adaptive.Omnipaxos.Batching.min_batch in
  let h = make ~batching:Omnipaxos.Batching.adaptive () in
  become_leader h;
  burst h (min_batch - 1);
  check_int "adaptive: below min_batch nothing ships" 0 (shipped h);
  burst h 1;
  check_int "adaptive: min_batch ships to both peers" 2 (shipped h);
  let h = make ~batching:Omnipaxos.Batching.fixed () in
  become_leader h;
  burst h min_batch;
  check_int "fixed: nothing ships before the tick" 0 (shipped h);
  N.tick h.node;
  check_int "fixed: the tick ships to both peers" 2 (shipped h)

(* One flush copies no entry: followers at the same position get views of
   the same (physically shared) entries of the leader's log. *)
let test_flush_shares_entries () =
  let h = make () in
  become_leader h;
  for i = 1 to 5 do
    ignore (N.propose h.node (Replog.Command.noop i))
  done;
  N.tick h.node;
  match
    List.filter_map
      (function
        | _, N.Append_entries { entries; _ } when Log.slice_length entries > 0
          ->
            Some entries
        | _ -> None)
      !(h.sent)
  with
  | [ e1; e2 ] ->
      check_int "the whole burst" 5 (Log.slice_length e1);
      check "the same entries for both followers" true
        (List.for_all2 ( == ) (Log.slice_to_list e1) (Log.slice_to_list e2))
  | l -> Alcotest.failf "expected two batches, got %d" (List.length l)

(* Committed entries are applied to the store once, in order: a trim cuts
   only the log, and after [recover] rewinds the commit index to the trim
   point, re-committing the same entries applies nothing twice. *)
let test_iter_committed () =
  let h = make ~compaction:(Omnipaxos.Compaction.make ~retain:2 4) () in
  become_leader h;
  for i = 0 to 5 do
    ignore (N.propose h.node (Replog.Command.noop i))
  done;
  N.handle h.node ~src:1
    (N.Append_resp { term = N.current_term h.node; success = true; match_idx = 5 });
  check_int "five committed" 5 (N.commit_idx h.node);
  check_int "trimmed below 3" 3 (N.first_idx h.node);
  let store = N.store h.node in
  let module Store = Omnipaxos.Compaction.Store in
  let ids () =
    Omnipaxos.Decided_cache.ids_from (Store.ids store) ~from:0
  in
  check "ids 0 to 4, in order" true (ids () = [ 0; 1; 2; 3; 4 ]);
  check_int "applied" 5 (Store.applied store);
  N.recover h.node;
  check_int "commit index rewound to the trim point" 3 (N.commit_idx h.node);
  N.handle h.node ~src:1
    (N.Append_entries
       {
         term = N.current_term h.node;
         prev_idx = 5;
         prev_term = N.current_term h.node;
         entries = Log.slice_of_list [];
         commit_idx = 6;
       });
  check_int "committed again" 6 (N.commit_idx h.node);
  check "no duplicates" true (ids () = [ 0; 1; 2; 3; 4; 5 ]);
  check_int "client count" 6 (Store.client_cmds store)

(* ------------------------- allocation ------------------------- *)

let minor_words () = int_of_float (Gc.minor_words ())

(* 100 proposals at a leader with [voters] voters. The eager-flush
   threshold sits above the burst, so every call checks each target and
   none ships. *)
let propose_words voters =
  let batching =
    { Omnipaxos.Batching.adaptive with Omnipaxos.Batching.min_batch = 4096 }
  in
  let h = make ~voters:(List.init voters Fun.id) ~batching ~quiet:true () in
  become_leader ~voters h;
  let cmds = Array.init 200 Replog.Command.noop in
  for i = 0 to 99 do
    ignore (N.propose h.node cmds.(i))
  done;
  let w0 = minor_words () in
  for i = 100 to 199 do
    ignore (N.propose h.node cmds.(i))
  done;
  let words = minor_words () - w0 in
  check_int "all appended" 200 (N.log_length h.node);
  words

let test_propose_alloc_flat () =
  check_int "propose words with 3 voters and with 9" (propose_words 3)
    (propose_words 9)

(* Acks that advance the commit index entry by entry: match and next
   indexes live in pid-indexed arrays and the quorum index is picked in a
   scratch buffer. *)
let test_append_resp_alloc_free () =
  let h = make ~voters:[ 0; 1; 2; 3; 4 ] ~quiet:true () in
  become_leader ~voters:5 h;
  for i = 1 to 100 do
    ignore (N.propose h.node (Replog.Command.noop i))
  done;
  let term = N.current_term h.node in
  let resp match_idx = N.Append_resp { term; success = true; match_idx } in
  (* First contact from each follower registers it with CheckQuorum's
     table. *)
  for src = 1 to 4 do
    N.handle h.node ~src (resp 0)
  done;
  let acks = Array.init 400 (fun i -> (1 + (i mod 4), resp (1 + (i / 4)))) in
  let w0 = minor_words () in
  for i = 0 to Array.length acks - 1 do
    let src, m = acks.(i) in
    N.handle h.node ~src m
  done;
  let words = minor_words () - w0 in
  check_int "everything committed" 100 (N.commit_idx h.node);
  check_int "acks allocate nothing" 0 words

(* A reply or a session reset from a pid that is neither a voter nor a
   learner is dropped: it does not widen the leader's per-pid arrays to
   that pid (a million-cell widening is ~5M words). [allocated_bytes] also
   counts arrays allocated straight into the major heap. *)
let test_non_target_reply_alloc () =
  let h = make ~quiet:true () in
  become_leader h;
  let term = N.current_term h.node in
  let far = 1_000_000 in
  let b0 = Gc.allocated_bytes () in
  N.handle h.node ~src:far (N.Append_resp { term; success = true; match_idx = 0 });
  N.session_reset h.node ~peer:far;
  let words = (Gc.allocated_bytes () -. b0) /. float (Sys.word_size / 8) in
  check "under 100 words" true (words < 100.);
  check "still leader" true (N.is_leader h.node)

(* A leader's flush ships a slice of its log per follower, taken in O(1):
   the tick that ships 1 entry and the one that ships 1000 allocate the
   same words. *)
let test_flush_alloc_flat () =
  let tick_words k =
    let h = make () in
    become_leader h;
    for i = 1 to k do
      ignore (N.propose h.node (Replog.Command.noop i))
    done;
    let w0 = minor_words () in
    N.tick h.node;
    let words = minor_words () - w0 in
    let shipped =
      List.filter_map
        (function
          | _, N.Append_entries { entries; _ } -> Some (Log.slice_length entries)
          | _ -> None)
        !(h.sent)
    in
    check "the batch ships to both peers" true (shipped = [ k; k ]);
    words
  in
  check_int "a tick shipping 1 and 1000 entries" (tick_words 1)
    (tick_words 1000)

(* A follower appends an AppendEntries slice with one blit: the words it
   allocates do not grow with the entries it carries. *)
let test_follower_append_alloc_flat () =
  let cost k =
    (* Room for the batch up front: growing the log is not the handler's
       cost. *)
    let prepare (p : N.persistent) =
      Log.append_list p.N.log (List.init k (entry 0));
      Log.truncate p.N.log 0
    in
    let h = make ~prepare ~quiet:true () in
    let append entries =
      N.Append_entries
        { term = 1; prev_idx = -1; prev_term = 0; entries; commit_idx = 0 }
    in
    (* The first contact adopts the leader's term. *)
    N.handle h.node ~src:1 (append (Log.slice_of_list []));
    let m = append (Log.slice_of_list (List.init k (entry 1))) in
    let w0 = minor_words () in
    N.handle h.node ~src:1 m;
    let words = minor_words () - w0 in
    check_int "appended" k (N.log_length h.node);
    words
  in
  check_int "an AppendEntries of 1 and of 1000 entries" (cost 1) (cost 1000)

let recorded_kinds f =
  let (), r = Obs.Trace.with_recording f in
  List.map (fun (e : Obs.Event.t) -> e.Obs.Event.kind) r.Obs.Trace.events

let ack h match_idx =
  N.handle h.node ~src:1
    (N.Append_resp { term = N.current_term h.node; success = true; match_idx })

(* A bare node traces its own proposals, commits and leader transitions. *)
let test_traces_propose_decide () =
  let kinds =
    recorded_kinds (fun () ->
        let h = make () in
        become_leader h;
        N.tick h.node;
        ignore (N.propose h.node (Replog.Command.noop 7));
        ack h 1)
  in
  let has what p = check what true (List.exists p kinds) in
  has "leader elected" (function
    | Obs.Event.Leader_elected { pid = 0; _ } -> true
    | _ -> false);
  has "proposed" (function
    | Obs.Event.Proposed { log_idx = 0; cmd_id = 7 } -> true
    | _ -> false);
  has "decided with the term as ballot" (function
    | Obs.Event.Decided { b = { n; pid = 0; _ }; decided_idx = 1 } -> n > 0
    | _ -> false)

(* With a compaction config, committing [snapshot_interval] entries
   snapshots and trims locally, and both steps are traced. *)
let test_traces_compaction () =
  let first_idx = ref 0 in
  let kinds =
    recorded_kinds (fun () ->
        let h = make ~compaction:(Omnipaxos.Compaction.make 4) () in
        become_leader h;
        for i = 0 to 3 do
          ignore (N.propose h.node (Replog.Command.noop i))
        done;
        ack h 4;
        first_idx := N.first_idx h.node)
  in
  check_int "trimmed at the commit index" 4 !first_idx;
  check "snapshot taken" true
    (List.exists
       (function
         | Obs.Event.Snapshot_taken { idx = 4; bytes } -> bytes > 0
         | _ -> false)
       kinds);
  check "log trimmed" true
    (List.mem (Obs.Event.Log_trimmed { upto = 4; entries = 4 }) kinds)

let () =
  Alcotest.run "raft_unit"
    [
      ( "votes",
        [
          Alcotest.test_case "one grant per term" `Quick
            test_vote_granted_once_per_term;
          Alcotest.test_case "log up-to-date check" `Quick
            test_vote_log_up_to_date;
          Alcotest.test_case "pre-vote does not bump the term" `Quick
            test_pre_vote_does_not_bump_term;
          Alcotest.test_case "a non-voter's vote is ignored" `Quick
            test_non_voter_vote_ignored;
        ] );
      ( "replication",
        [
          Alcotest.test_case "current-term commit rule" `Quick
            test_commit_rule_current_term_only;
          Alcotest.test_case "conflict truncation" `Quick
            test_append_entries_conflict_truncation;
          Alcotest.test_case "gap hint" `Quick test_append_gap_hint;
          Alcotest.test_case "batching config" `Quick test_batching_config;
          Alcotest.test_case "flush shares one entries list" `Quick
            test_flush_shares_entries;
          Alcotest.test_case "iter_committed" `Quick test_iter_committed;
        ] );
      ( "leadership",
        [
          Alcotest.test_case "check-quorum step-down" `Quick
            test_check_quorum_steps_down;
          Alcotest.test_case "learners make no CheckQuorum" `Quick
            test_learners_are_no_quorum;
          Alcotest.test_case "higher term deposes" `Quick
            test_higher_term_deposes_leader;
          Alcotest.test_case "learner promotion" `Quick
            test_learner_promotion_via_config;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "proposals, decides and leaders" `Quick
            test_traces_propose_decide;
          Alcotest.test_case "compaction" `Quick test_traces_compaction;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "propose words flat in voters" `Quick
            test_propose_alloc_flat;
          Alcotest.test_case "append responses allocate nothing" `Quick
            test_append_resp_alloc_free;
          Alcotest.test_case "a non-target's reply grows no array" `Quick
            test_non_target_reply_alloc;
          Alcotest.test_case "flush words flat in the batch" `Quick
            test_flush_alloc_flat;
          Alcotest.test_case "follower append words flat in k" `Quick
            test_follower_append_alloc_flat;
        ] );
    ]
