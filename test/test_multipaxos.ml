(* Multi-Paxos baseline tests: normal operation, plus the paper's Table 1
   expectations — deadlock under quorum-loss, recovery in the constrained
   election scenario, and a leader-change livelock (with partial progress)
   in the chained scenario. *)

module Net = Simnet.Net
module C = Rsm.Cluster.Make (Rsm.Multipaxos_adapter)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(n = 3) ?(seed = 11) () = { Rsm.Cluster.default_config with n; seed }
let decided c id = Rsm.Multipaxos_adapter.decided_count (C.node c id)

let propose_at c id count ~first =
  let node = C.node c id in
  let ok = ref 0 in
  for i = first to first + count - 1 do
    if Rsm.Multipaxos_adapter.propose node (Replog.Command.noop i) then incr ok
  done;
  !ok

let test_elects_and_replicates () =
  let c = C.create (cfg ()) in
  C.run_ms c 1000.0;
  let leader = Option.get (C.leader c) in
  check_int "accepted" 50 (propose_at c leader 50 ~first:0);
  C.run_ms c 500.0;
  List.iter (fun id -> check_int "decided everywhere" 50 (decided c id)) [ 0; 1; 2 ]

let test_leader_failover () =
  let c = C.create (cfg ~n:5 ()) in
  C.run_ms c 1000.0;
  let leader = Option.get (C.leader c) in
  ignore (propose_at c leader 20 ~first:0);
  C.run_ms c 500.0;
  Net.crash (C.net c) leader;
  C.run_ms c 3000.0;
  let new_leader = Option.get (C.leader c) in
  check "new leader" true (new_leader <> leader);
  ignore (propose_at c new_leader 20 ~first:100);
  C.run_ms c 500.0;
  check "progress" true (decided c new_leader >= 40)

(* Quorum-loss: the hub keeps hearing the stale leader's node heartbeats and
   never takes over; everyone else lacks a quorum. Deadlock until heal. *)
let test_quorum_loss_deadlock () =
  let c = C.create (cfg ~n:5 ~seed:3 ()) in
  C.run_ms c 2000.0;
  let leader = Option.get (C.leader c) in
  ignore (propose_at c leader 10 ~first:0);
  C.run_ms c 500.0;
  let hub = if leader = 0 then 1 else 0 in
  Rsm.Scenario.quorum_loss (C.net c) ~hub;
  C.run_ms c 500.0;
  let before = C.max_decided c in
  C.run_ms c 30_000.0;
  (* Proposals at whoever claims leadership go nowhere. *)
  (match C.leader c with
  | Some l -> ignore (propose_at c l 5 ~first:100)
  | None -> ());
  C.run_ms c 5000.0;
  check_int "deadlock: nothing decided during partition" before
    (C.max_decided c);
  Rsm.Scenario.heal (C.net c);
  C.run_ms c 10_000.0;
  let l = Option.get (C.leader c) in
  ignore (propose_at c l 5 ~first:200);
  C.run_ms c 2000.0;
  check "recovers after heal" true (C.max_decided c > before)

(* Constrained election: the QC server has no log or EQC requirement to
   satisfy, so Multi-Paxos recovers. *)
let test_constrained_recovers () =
  let c = C.create (cfg ~n:5 ~seed:3 ()) in
  C.run_ms c 2000.0;
  let leader = Option.get (C.leader c) in
  let qc = if leader = 0 then 1 else 0 in
  Net.set_link (C.net c) qc leader false;
  ignore (propose_at c leader 10 ~first:0);
  C.run_ms c 100.0;
  Rsm.Scenario.constrained (C.net c) ~qc ~leader;
  C.run_ms c 30_000.0;
  check_int "QC server becomes the leader" qc (Option.get (C.leader c));
  let before = C.max_decided c in
  ignore (propose_at c qc 10 ~first:100);
  C.run_ms c 3000.0;
  check "progress resumed" true (C.max_decided c >= before + 10)

(* Chained: livelock of alternating takeovers between the two disconnected
   ends, with windows of progress in between (the paper's ~30% throughput
   loss), never resolved by the middle server. *)
let test_chained_livelock_with_progress () =
  let c = C.create (cfg ~n:3 ~seed:7 ()) in
  C.run_ms c 2000.0;
  let leader = Option.get (C.leader c) in
  let ends = List.filter (fun i -> i <> leader) [ 0; 1; 2 ] in
  let other = List.hd ends in
  let middle = List.hd (List.tl ends) in
  (* Cut leader <-> other: [middle] stays connected to both. *)
  Rsm.Scenario.chained (C.net c) ~a:leader ~b:other;
  (* Drive proposals through whichever server is currently active. *)
  let proposed = ref 0 in
  for _ = 1 to 300 do
    C.run_ms c 100.0;
    match C.leader c with
    | Some l ->
        proposed := !proposed + propose_at c l 10 ~first:(1000 + !proposed)
    | None -> ()
  done;
  check "some progress during livelock" true (C.max_decided c > 0);
  (* The middle server never becomes the leader: takeovers alternate between
     the chain ends. *)
  check "middle server does not lead" true
    (not (Rsm.Multipaxos_adapter.is_leader (C.node c middle)));
  (* Livelock: both ends were deposed and re-elected repeatedly, which shows
     as a high ballot number. *)
  let ballot_n =
    (Multipaxos.Node.current_ballot (C.node c (Option.get (C.leader c))))
      .Multipaxos.Node.n
  in
  check "repeated leader changes (ballot churn)" true (ballot_n > 5)

(* The contiguous decided prefixes of all servers must agree. *)
let test_decided_prefix_agreement () =
  let c = C.create (cfg ~n:3 ()) in
  C.run_ms c 1000.0;
  let leader = Option.get (C.leader c) in
  ignore (propose_at c leader 30 ~first:0);
  C.run_ms c 300.0;
  Net.crash (C.net c) leader;
  C.run_ms c 3000.0;
  (match C.leader c with
  | Some l -> ignore (propose_at c l 30 ~first:100)
  | None -> ());
  C.run_ms c 3000.0;
  let logs =
    List.filter_map
      (fun id ->
        if Net.is_up (C.net c) id then
          Some (Rsm.Multipaxos_adapter.decided_ids (C.node c id) ~from:0)
        else None)
      [ 0; 1; 2 ]
  in
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && prefix xs ys
  in
  check "prefix agreement" true
    (List.for_all
       (fun a -> List.for_all (fun b -> prefix a b || prefix b a) logs)
       logs)

let () =
  Alcotest.run "multipaxos"
    [
      ( "multipaxos",
        [
          Alcotest.test_case "elects and replicates" `Quick
            test_elects_and_replicates;
          Alcotest.test_case "leader failover" `Quick test_leader_failover;
          Alcotest.test_case "quorum loss deadlock" `Quick
            test_quorum_loss_deadlock;
          Alcotest.test_case "constrained recovers" `Quick
            test_constrained_recovers;
          Alcotest.test_case "chained livelock with progress" `Quick
            test_chained_livelock_with_progress;
          Alcotest.test_case "decided prefix agreement" `Quick
            test_decided_prefix_agreement;
        ] );
    ]
