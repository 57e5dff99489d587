(* Tests for the evaluation harness itself: the cluster driver's leader
   selection, the closed-loop client's flow control and retry logic, and
   the scenario helpers; and an end-to-end Omni-Paxos safety check driven
   through it. *)

module Net = Simnet.Net
module C = Rsm.Cluster.Make (Rsm.Omni_adapter)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg ?(n = 3) () = { Rsm.Cluster.default_config with n; seed = 3 }

let test_client_keeps_cp_outstanding () =
  let c = C.create (cfg ()) in
  let client = C.start_client c ~cp:100 in
  C.run_ms c 2000.0;
  Rsm.Client.stop client;
  let decided = Rsm.Client.decided client in
  check "client drove a sustained load" true (decided > 1000);
  (* Flow control: the decided count can never exceed what cp allows given
     at least one tick of turnaround per batch. *)
  check "bounded by cp per poll" true
    (decided <= 100 * int_of_float (2000.0 /. 5.0))

let test_client_retries_after_leader_loss () =
  let c = C.create (cfg ~n:5 ()) in
  let client = C.start_client c ~cp:50 in
  C.run_ms c 1000.0;
  let leader = Option.get (C.leader c) in
  let before = Rsm.Client.decided client in
  Net.crash (C.net c) leader;
  (* The in-flight proposals at the dead leader are lost; the client must
     abandon and re-propose once a new leader emerges. *)
  C.run_ms c 3000.0;
  Rsm.Client.stop client;
  check "progress resumed after the leader died" true
    (Rsm.Client.decided client > before);
  check "client observed the leader change" true
    (Rsm.Client.leader_changes client >= 1)

let test_leader_pick_prefers_progress () =
  (* During a chained partition two servers can claim leadership; the driver
     must route the client to the one actually deciding. *)
  let c = C.create (cfg ()) in
  let client = C.start_client c ~cp:50 in
  C.run_ms c 1000.0;
  let l0 = Option.get (C.leader c) in
  let other = if l0 = 0 then 1 else 0 in
  Rsm.Scenario.chained (C.net c) ~a:l0 ~b:other;
  C.run_ms c 2000.0;
  let picked = Option.get (C.leader c) in
  let before = C.max_decided c in
  C.run_ms c 1000.0;
  Rsm.Client.stop client;
  check "picked leader is making progress" true (C.max_decided c > before);
  check_int "picked the takeover leader" other picked

let test_scenarios_cut_expected_links () =
  let net : unit Net.t = Net.create ~num_nodes:5 () in
  Rsm.Scenario.quorum_loss net ~hub:2;
  check "hub links stay up" true
    (List.for_all (fun j -> j = 2 || Net.link_up net 2 j) [ 0; 1; 2; 3; 4 ]);
  check "non-hub links are down" true
    (not (Net.link_up net 0 1) && not (Net.link_up net 3 4));
  Rsm.Scenario.heal net;
  check "heal restores" true (Net.link_up net 0 1);
  Rsm.Scenario.chain_of net ~order:[ 4; 3; 2; 1; 0 ];
  check "consecutive up" true (Net.link_up net 4 3 && Net.link_up net 1 0);
  check "non-consecutive down" true
    ((not (Net.link_up net 4 2)) && not (Net.link_up net 3 0));
  Rsm.Scenario.heal net;
  Rsm.Scenario.constrained net ~qc:1 ~leader:4;
  check "leader isolated" true
    (List.for_all (fun j -> j = 4 || not (Net.link_up net 4 j)) [ 0; 1; 2; 3 ]);
  check "qc keeps its other links" true
    (Net.link_up net 1 0 && Net.link_up net 1 2 && Net.link_up net 1 3);
  check "others only reach qc" true (not (Net.link_up net 0 2))

(* SC2 when the leader pipelines. Follower [x] is cut off, so follower [f]
   is the leader's only quorum partner. The first batch is flushed on a
   tick; the second is proposed while the first batch's Accepted is in
   flight, so when that Accepted arrives the leader alone holds the second
   batch, and only the first may be decided. The leader is isolated right
   then (the Decide it sends is dropped), and [x] and [f] elect a new
   leader that decides a third batch after the first. Every server's
   decided ids must be prefixes of one sequence. Ticks fire at multiples of
   [tick_ms] (5 ms) and every message takes the default 0.1 ms. *)
let test_pipelined_batch_needs_quorum () =
  let c = C.create (cfg ()) in
  let net = C.net c in
  let run_to t = C.run_ms c (t -. C.now c) in
  run_to 500.0;
  let l = Option.get (C.leader c) in
  let f, x =
    match List.filter (fun i -> i <> l) [ 0; 1; 2 ] with
    | [ f; x ] -> (f, x)
    | _ -> assert false
  in
  Net.isolate net x;
  run_to 501.0;
  check_int "first batch" 5 (C.propose_batch c ~leader:l ~first_id:0 ~count:5);
  (* The tick at 505 flushes it: the Accept reaches [f] at 505.1 and its
     Accepted is back at 505.2. *)
  run_to 505.15;
  check_int "second batch" 5 (C.propose_batch c ~leader:l ~first_id:5 ~count:5);
  run_to 505.25;
  Net.isolate net l;
  Net.set_link net f x true;
  C.run_ms c 2000.0;
  let l' =
    List.find (fun i -> Rsm.Omni_adapter.is_leader (C.node c i)) [ f; x ]
  in
  check_int "third batch" 5 (C.propose_batch c ~leader:l' ~first_id:100 ~count:5);
  C.run_ms c 500.0;
  let ids i = Rsm.Omni_adapter.decided_ids (C.node c i) ~from:0 in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
  in
  let logs = List.map ids [ 0; 1; 2 ] in
  check "decided ids are prefixes of one sequence" true
    (List.for_all
       (fun a -> List.for_all (fun b -> is_prefix a b || is_prefix b a) logs)
       logs);
  check "the new leader decided the third batch" true (List.mem 104 (ids l'))

let () =
  Alcotest.run "cluster"
    [
      ( "harness",
        [
          Alcotest.test_case "client flow control" `Quick
            test_client_keeps_cp_outstanding;
          Alcotest.test_case "client retry on leader loss" `Quick
            test_client_retries_after_leader_loss;
          Alcotest.test_case "leader pick prefers progress" `Quick
            test_leader_pick_prefers_progress;
          Alcotest.test_case "scenario link matrices" `Quick
            test_scenarios_cut_expected_links;
        ] );
      ( "omni-paxos",
        [
          Alcotest.test_case "a pipelined batch needs a quorum (SC2)" `Quick
            test_pipelined_batch_needs_quorum;
        ] );
    ]
