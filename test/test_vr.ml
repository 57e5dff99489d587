(* VR leader-election tests: round-robin view changes in normal operation,
   and the Table 1 expectations — deadlock in both the quorum-loss and the
   constrained election scenarios (no server can be elected by a quorum of
   QC servers), recovery with at most a couple of view changes in the
   chained scenario. *)

module Net = Simnet.Net
module C = Rsm.Cluster.Make (Rsm.Vr_adapter)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(n = 3) ?(seed = 11) () = { Rsm.Cluster.default_config with n; seed }
let decided c id = Rsm.Vr_adapter.decided_count (C.node c id)
let vr_view c id = Vr.Node.view (C.node c id)

let propose_at c id count ~first =
  let node = C.node c id in
  let ok = ref 0 in
  for i = first to first + count - 1 do
    if Rsm.Vr_adapter.propose node (Replog.Command.noop i) then incr ok
  done;
  !ok

let test_initial_leader_and_replication () =
  let c = C.create (cfg ()) in
  C.run_ms c 500.0;
  check_int "view 0 leader is server 0" 0 (Option.get (C.leader c));
  check_int "accepted" 50 (propose_at c 0 50 ~first:0);
  C.run_ms c 500.0;
  List.iter (fun id -> check_int "decided" 50 (decided c id)) [ 0; 1; 2 ]

let test_round_robin_failover () =
  let c = C.create (cfg ~n:5 ()) in
  C.run_ms c 500.0;
  ignore (propose_at c 0 10 ~first:0);
  C.run_ms c 300.0;
  Net.crash (C.net c) 0;
  C.run_ms c 3000.0;
  check_int "view 1 leader is server 1" 1 (Option.get (C.leader c));
  ignore (propose_at c 1 10 ~first:100);
  C.run_ms c 500.0;
  check_int "progress in the new view" 20 (decided c 1)

let test_quorum_loss_deadlock () =
  let c = C.create (cfg ~n:5 ()) in
  C.run_ms c 500.0;
  ignore (propose_at c 0 10 ~first:0);
  C.run_ms c 300.0;
  (* Leader is 0; hub must differ. *)
  Rsm.Scenario.quorum_loss (C.net c) ~hub:2;
  C.run_ms c 1000.0;
  let before = C.max_decided c in
  C.run_ms c 30_000.0;
  (match C.leader c with
  | Some l -> ignore (propose_at c l 5 ~first:100)
  | None -> ());
  C.run_ms c 3000.0;
  check_int "deadlocked" before (C.max_decided c);
  Rsm.Scenario.heal (C.net c);
  C.run_ms c 10_000.0;
  (match C.leader c with
  | Some l -> ignore (propose_at c l 5 ~first:200)
  | None -> ());
  C.run_ms c 3000.0;
  check "recovers after heal" true (C.max_decided c > before)

let test_constrained_deadlock () =
  let c = C.create (cfg ~n:5 ()) in
  C.run_ms c 500.0;
  let leader = 0 in
  let qc = 2 in
  Net.set_link (C.net c) qc leader false;
  ignore (propose_at c leader 10 ~first:0);
  C.run_ms c 100.0;
  Rsm.Scenario.constrained (C.net c) ~qc ~leader;
  let before = C.max_decided c in
  C.run_ms c 30_000.0;
  (match C.leader c with
  | Some l -> ignore (propose_at c l 5 ~first:100)
  | None -> ());
  C.run_ms c 3000.0;
  check_int "no QC server can be EQC: deadlocked" before (C.max_decided c)

let test_chained_recovers () =
  let c = C.create (cfg ~n:3 ()) in
  C.run_ms c 500.0;
  ignore (propose_at c 0 10 ~first:0);
  C.run_ms c 300.0;
  (* Cut leader(0) <-> 2: server 1 is the middle of the chain. *)
  Rsm.Scenario.chained (C.net c) ~a:0 ~b:2;
  C.run_ms c 10_000.0;
  (* Eventually a middle-capable leader is elected (possibly after a double
     view change due to the round-robin order). *)
  let leader = Option.get (C.leader c) in
  ignore (propose_at c leader 10 ~first:100);
  C.run_ms c 2000.0;
  check "progress after chained partition" true (C.max_decided c >= 20);
  (* Stability: the view stops changing. *)
  let v = vr_view c leader in
  C.run_ms c 5000.0;
  check_int "view is stable" v (vr_view c leader)

let () =
  Alcotest.run "vr"
    [
      ( "vr",
        [
          Alcotest.test_case "initial leader and replication" `Quick
            test_initial_leader_and_replication;
          Alcotest.test_case "round robin failover" `Quick
            test_round_robin_failover;
          Alcotest.test_case "quorum loss deadlock" `Quick
            test_quorum_loss_deadlock;
          Alcotest.test_case "constrained deadlock" `Quick
            test_constrained_deadlock;
          Alcotest.test_case "chained recovers" `Quick test_chained_recovers;
        ] );
    ]
