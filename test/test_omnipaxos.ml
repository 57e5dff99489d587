(* Integration tests for the Omni-Paxos replica on the simulated network:
   election, replication, the three partial-connectivity scenarios of §2,
   fail-recovery, and session drops. *)

open Helpers
module Net = Simnet.Net
module R = Omnipaxos.Replica

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let decided c id = R.decided_idx (replica c id)

let test_elects_leader () =
  let c = make_cluster ~n:3 () in
  run_ms c 500.0;
  check "a leader is elected" true (current_leader c <> None);
  (* All servers agree: with full connectivity the max ballot wins, which
     belongs to the highest pid. *)
  check_int "leader is the max-pid server" 2 (Option.get (current_leader c))

let test_replicates () =
  let c = make_cluster ~n:3 () in
  run_ms c 500.0;
  let n = propose_noops c ~first_id:0 ~count:100 in
  check_int "all proposals accepted" 100 n;
  run_ms c 500.0;
  List.iter
    (fun id -> check_int (Printf.sprintf "server %d decided" id) 100 (decided c id))
    [ 0; 1; 2 ];
  check "logs are prefix-consistent" true
    (check_prefix_consistency
       (List.map (fun id -> R.read_decided (replica c id) ~from:0) [ 0; 1; 2 ]))

let test_five_servers () =
  let c = make_cluster ~n:5 () in
  run_ms c 500.0;
  ignore (propose_noops c ~first_id:0 ~count:50);
  run_ms c 500.0;
  List.iter (fun id -> check_int "decided" 50 (decided c id)) [ 0; 1; 2; 3; 4 ]

(* Quorum-loss (Figure 5a): all servers remain connected to server 0 but
   disconnected from everyone else; the old leader (4) is alive but no longer
   quorum-connected. Server 0 must take over. *)
let test_quorum_loss () =
  let c = make_cluster ~n:5 () in
  run_ms c 500.0;
  check_int "initial leader" 4 (Option.get (current_leader c));
  ignore (propose_noops c ~first_id:0 ~count:10);
  run_ms c 200.0;
  (* Cut every link not involving server 0. *)
  for a = 1 to 4 do
    for b = a + 1 to 4 do
      Net.set_link c.net a b false
    done
  done;
  run_ms c 2000.0;
  check_int "the only QC server takes over" 0 (Option.get (current_leader c));
  let n = propose_noops c ~first_id:100 ~count:10 in
  check_int "new leader accepts proposals" 10 n;
  run_ms c 500.0;
  check "progress resumed: new entries decided at leader" true
    (decided c 0 >= 20)

(* Constrained election (Figure 5b): the only QC server has an outdated log
   (it was disconnected from the leader before the others), yet it must get
   elected and catch up in the Prepare phase. *)
let test_constrained_election () =
  let c = make_cluster ~n:5 () in
  run_ms c 500.0;
  let leader = Option.get (current_leader c) in
  check_int "initial leader" 4 leader;
  (* Disconnect server 0 from the leader first, then replicate: 0 misses
     entries. *)
  Net.set_link c.net 0 4 false;
  ignore (propose_noops c ~first_id:0 ~count:10);
  (* Short enough that server 0 has not yet taken over leadership (which
     takes ~2 heartbeat rounds), long enough for replication to the rest. *)
  run_ms c 30.0;
  check "server 0 lags" true (decided c 0 < 10);
  check_int "others decided" 10 (decided c 1);
  (* Now fully isolate the leader; and cut all remaining links except the
     ones to server 0: 0 is the only QC server. *)
  Net.isolate c.net 4;
  for a = 1 to 3 do
    for b = a + 1 to 3 do
      Net.set_link c.net a b false
    done
  done;
  run_ms c 2000.0;
  check_int "outdated QC server elected" 0 (Option.get (current_leader c));
  check_int "new leader caught up in Prepare phase" 10 (decided c 0);
  ignore (propose_noops c ~first_id:100 ~count:5);
  run_ms c 500.0;
  check_int "progress" 15 (decided c 0)

(* Chained scenario (Figure 5c): 3 servers, the link between the leader (2)
   and server 1 breaks. One leader change must occur, after which the cluster
   makes stable progress without livelock. *)
let test_chained () =
  let c = make_cluster ~n:3 () in
  run_ms c 500.0;
  check_int "initial leader" 2 (Option.get (current_leader c));
  ignore (propose_noops c ~first_id:0 ~count:10);
  run_ms c 200.0;
  Net.set_link c.net 1 2 false;
  run_ms c 2000.0;
  (* Server 1 suspects the leader, takes over with a higher ballot; 0 and 1
     follow it. The stale leader 2 cannot disrupt via 0 because BLE ballots
     carry no leader identity. *)
  let leader = Option.get (current_leader c) in
  check_int "one takeover by the disconnected server" 1 leader;
  let before = decided c 1 in
  ignore (propose_noops c ~first_id:100 ~count:20);
  run_ms c 1000.0;
  check "stable progress after single change" true (decided c 1 = before + 20);
  (* No further leader flapping: ballot of the leader is unchanged. *)
  run_ms c 2000.0;
  check_int "leader is stable" 1 (Option.get (current_leader c))

let test_crash_recovery () =
  let c = make_cluster ~n:3 () in
  run_ms c 500.0;
  ignore (propose_noops c ~first_id:0 ~count:10);
  run_ms c 300.0;
  crash c 0;
  ignore (propose_noops c ~first_id:100 ~count:10);
  run_ms c 300.0;
  check_int "majority still decides" 20 (decided c 1);
  recover c 0;
  run_ms c 1000.0;
  check_int "recovered server catches up" 20 (decided c 0);
  check "logs consistent" true
    (check_prefix_consistency
       (List.map (fun id -> R.read_decided (replica c id) ~from:0) [ 0; 1; 2 ]))

let test_leader_crash_recovery () =
  let c = make_cluster ~n:3 () in
  run_ms c 500.0;
  let leader = Option.get (current_leader c) in
  ignore (propose_noops c ~first_id:0 ~count:10);
  run_ms c 300.0;
  crash c leader;
  run_ms c 2000.0;
  let new_leader = Option.get (current_leader c) in
  check "another server takes over" true (new_leader <> leader);
  ignore (propose_noops c ~first_id:100 ~count:10);
  run_ms c 500.0;
  check_int "progress under new leader" 20 (decided c new_leader);
  recover c leader;
  run_ms c 2000.0;
  check_int "old leader rejoins and catches up" 20 (decided c leader)

(* A temporary full partition drops messages; when it heals, the session
   reset triggers PrepareReq-based resynchronisation. *)
let test_session_drop_resync () =
  let c = make_cluster ~n:3 () in
  run_ms c 500.0;
  ignore (propose_noops c ~first_id:0 ~count:5);
  run_ms c 300.0;
  Net.partition c.net [ 0 ] [ 1; 2 ];
  ignore (propose_noops c ~first_id:100 ~count:5);
  run_ms c 500.0;
  check_int "isolated server misses entries" 5 (decided c 0);
  check_int "majority progresses" 10 (decided c 2);
  Net.heal_all c.net;
  run_ms c 1000.0;
  check_int "resynced after session reset" 10 (decided c 0)

(* Figure 5c at 5 servers (LE2 case iii): the leader and one follower get
   disconnected from each other, leaving two quorum-connected servers that
   elect differently in overlapping majorities. The higher ballot wins the
   overlap and progress continues with a single leader change. *)
let test_two_disconnected_qc_leaders () =
  let c = make_cluster ~n:5 () in
  run_ms c 500.0;
  let old_leader = Option.get (current_leader c) in
  check_int "initial leader" 4 old_leader;
  ignore (propose_noops c ~first_id:0 ~count:10);
  run_ms c 200.0;
  Net.set_link c.net 4 3 false;
  run_ms c 2000.0;
  (* Server 3 took over with a higher ballot; server 4 may still consider
     itself a leader but cannot decide: its majority overlaps 3's. *)
  check "takeover by the disconnected QC server" true
    (Omnipaxos.Replica.is_leader (replica c 3));
  let before = R.decided_idx (replica c 3) in
  ignore (propose_noops c ~first_id:100 ~count:20);
  run_ms c 1000.0;
  check_int "progress through the new leader" (before + 20)
    (R.decided_idx (replica c 3));
  (* The stale leader cannot have decided anything new. *)
  check "old leader stalled" true (R.decided_idx (replica c 4) <= before + 20);
  check "logs consistent" true
    (check_prefix_consistency
       (List.map (fun id -> R.read_decided (replica c id) ~from:0) [ 0; 1; 2; 3 ]))

(* The trace-driven safety invariants hold over a full quorum-loss run: even
   across the leader takeover, no two servers ever drive Prepare/Accept under
   the same ballot, and no server's decided index regresses. *)
let test_quorum_loss_trace_invariants () =
  let (), { Obs.Trace.events; dropped = _; dropped_by_kind = _ } =
    Obs.Trace.with_recording (fun () ->
        let c = make_cluster ~n:5 () in
        run_ms c 500.0;
        ignore (propose_noops c ~first_id:0 ~count:10);
        run_ms c 200.0;
        (* Quorum loss: cut every link not involving server 0. *)
        for a = 1 to 4 do
          for b = a + 1 to 4 do
            Net.set_link c.net a b false
          done
        done;
        run_ms c 2000.0;
        ignore (propose_noops c ~first_id:100 ~count:10);
        run_ms c 500.0)
  in
  check "trace is non-empty" true (not (List.is_empty events));
  let has kind =
    List.exists (fun (e : Obs.Event.t) -> Obs.Event.kind_name e.kind = kind)
      events
  in
  check "trace has ballot takeover events" true (has "ballot_increment");
  check "trace has link events" true (has "link_cut");
  check "trace has decide events" true (has "decide");
  List.iter
    (fun (name, result) ->
      match result with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "invariant %s violated: %s" name
            (Format.asprintf "%a" Obs.Invariant.pp_violation v))
    (Obs.Invariant.check_all events)

(* Cluster-level trim: compact, keep replicating, survive a leader change. *)
let test_trim_end_to_end () =
  let c = make_cluster ~n:3 () in
  run_ms c 500.0;
  ignore (propose_noops c ~first_id:0 ~count:50);
  run_ms c 500.0;
  let leader = Option.get (current_leader c) in
  check "trim accepted" true
    (R.request_trim (replica c leader) ~upto:30);
  run_ms c 200.0;
  List.iter
    (fun id ->
      check_int "compacted everywhere" 30
        (Replog.Log.first_idx (R.read_log (replica c id))))
    [ 0; 1; 2 ];
  ignore (propose_noops c ~first_id:100 ~count:10);
  run_ms c 500.0;
  check_int "replication continues" 60 (R.decided_idx (replica c 0));
  (* Elections still work over compacted logs. *)
  crash c leader;
  run_ms c 2000.0;
  let new_leader = Option.get (current_leader c) in
  ignore (propose_noops c ~first_id:200 ~count:10);
  run_ms c 500.0;
  check "progress after leader change over trimmed logs" true
    (R.decided_idx (replica c new_leader) >= 70)

(* With compaction on, every replica holds a bounded window of the log,
   not the history: the leader trims each [interval] decided entries down
   to [retain], and each follower trims where the leader did on the Trim
   that follows the Decide. A replica may hold one batch of accepted but
   undecided entries on top. *)
let test_logs_bounded_under_compaction () =
  let interval = 1000 and retain = 100 in
  let bound = interval + retain + Omnipaxos.Batching.fixed.max_batch in
  let c =
    make_cluster ~n:5
      ~compaction:(Omnipaxos.Compaction.make ~retain interval)
      ()
  in
  run_ms c 500.0;
  let proposed = ref 0 in
  let decide_up_to total =
    while !proposed < total do
      let count = min 2000 (total - !proposed) in
      proposed := !proposed + propose_noops c ~first_id:!proposed ~count;
      run_ms c 10.0
    done;
    run_ms c 200.0;
    List.iter
      (fun id ->
        let r = replica c id in
        check_int (Printf.sprintf "server %d decided" id) total
          (R.decided_idx r);
        let held = R.log_length r - R.first_idx r in
        check
          (Printf.sprintf "server %d holds %d entries, at most %d" id held bound)
          true (held <= bound))
      [ 0; 1; 2; 3; 4 ]
  in
  decide_up_to 20_000;
  decide_up_to 220_000

let () =
  Alcotest.run "omnipaxos"
    [
      ( "integration",
        [
          Alcotest.test_case "elects leader" `Quick test_elects_leader;
          Alcotest.test_case "replicates" `Quick test_replicates;
          Alcotest.test_case "five servers" `Quick test_five_servers;
          Alcotest.test_case "quorum loss" `Quick test_quorum_loss;
          Alcotest.test_case "constrained election" `Quick
            test_constrained_election;
          Alcotest.test_case "chained" `Quick test_chained;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "leader crash recovery" `Quick
            test_leader_crash_recovery;
          Alcotest.test_case "session drop resync" `Quick
            test_session_drop_resync;
          Alcotest.test_case "two disconnected QC leaders" `Quick
            test_two_disconnected_qc_leaders;
          Alcotest.test_case "quorum loss trace invariants" `Quick
            test_quorum_loss_trace_invariants;
          Alcotest.test_case "trim end to end" `Quick test_trim_end_to_end;
          Alcotest.test_case "replica logs stay bounded under compaction"
            `Quick test_logs_bounded_under_compaction;
        ] );
    ]
