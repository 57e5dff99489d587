(* Reconfiguration tests (§6): stop-sign semantics, parallel log migration
   in the Omni-Paxos service layer, and the Raft learner-based scheme. *)

let check = Alcotest.(check bool)

let params ?(old_nodes = [ 0; 1; 2; 3; 4 ]) ?(new_nodes = [ 0; 1; 2; 3; 5 ])
    ?(preload = 20_000) ?(cp = 500) ?(egress_bw = 2_000.0) ?(seed = 5) () =
  {
    Rsm.Reconfig.net_cfg =
      {
        Rsm.Cluster.default_config with
        n = 8;
        seed;
        egress_bw;
        election_timeout_ms = 50.0;
      };
    old_nodes;
    new_nodes;
    preload;
    cp;
    reconfigure_at = 2_000.0;
    total_ms = 30_000.0;
    segment_entries = 2_000;
    faults = [];
  }

let throughput_after series ~from ~until =
  Rsm.Metrics.Series.total_between series ~from ~until

(* The exact outcome of a run, pinned so a refactor of the runners shows up
   as a changed number rather than a still-passing range check. *)
let check_exact (r : Rsm.Reconfig.result) ~committed ~done_ ~decided
    ~leader_changes ~final_egress =
  let ms = function Some t -> Printf.sprintf "%.3f" t | None -> "never" in
  Alcotest.(check string) "committed at (ms)" committed
    (ms r.reconfig_committed_at);
  Alcotest.(check string) "migration done at (ms)" done_
    (ms r.migration_done_at);
  Alcotest.(check int) "decided" decided r.decided;
  Alcotest.(check int) "leader changes" leader_changes r.leader_changes;
  let _, bytes = List.nth r.io_series (List.length r.io_series - 1) in
  Alcotest.(check (list int)) "final egress per node" final_egress
    (Array.to_list bytes)

let test_omni_replace_one () =
  let p = params () in
  let r = Rsm.Reconfig.Omni.run p in
  check "stop-sign decided" true (r.reconfig_committed_at <> None);
  check "migration completed" true (r.migration_done_at <> None);
  let done_at = Option.get r.migration_done_at in
  check "migration faster than 10s" true (done_at < 12_000.0);
  check "throughput resumes after migration" true
    (throughput_after r.series ~from:(done_at +. 2_000.0) ~until:p.total_ms
     > 1000);
  check "decided a sizable load overall" true (r.decided > 10_000);
  check_exact r ~committed:"2003.561" ~done_:"2116.603" ~decided:1473500
    ~leader_changes:2
    ~final_egress:
      [ 622355; 622355; 622355; 830513; 3187053; 45195508; 0; 0 ]

let test_omni_replace_majority () =
  let p = params ~new_nodes:[ 0; 1; 5; 6; 7 ] () in
  let r = Rsm.Reconfig.Omni.run p in
  check "stop-sign decided" true (r.reconfig_committed_at <> None);
  check "migration completed" true (r.migration_done_at <> None);
  let done_at = Option.get r.migration_done_at in
  check "throughput resumes after migration" true
    (throughput_after r.series ~from:(done_at +. 2_000.0) ~until:p.total_ms
     > 1000)

let test_omni_migration_is_parallel () =
  (* With one server replaced, the transfer load is split across the four
     continuing servers instead of being borne by the leader alone. *)
  let p = params () in
  let r = Rsm.Reconfig.Omni.run p in
  let final = List.nth r.io_series (List.length r.io_series - 1) in
  let _, bytes = final in
  let donors = [ 0; 1; 2; 3 ] in
  let donor_bytes = List.map (fun d -> bytes.(d)) donors in
  let max_donor = List.fold_left max 0 donor_bytes in
  let min_donor = List.fold_left min max_int donor_bytes in
  (* All continuing servers carried a comparable share: the max donor sent
     less than 3x the min donor. *)
  check "migration load is spread" true (max_donor < 3 * min_donor)

let test_raft_replace_one () =
  let p = params () in
  let r = Rsm.Reconfig.Raft_runner.run p in
  check "config committed" true (r.reconfig_committed_at <> None);
  check "all new servers active" true (r.migration_done_at <> None);
  let done_at = Option.get r.migration_done_at in
  check "throughput resumes" true
    (throughput_after r.series ~from:(done_at +. 3_000.0) ~until:p.total_ms
     > 1000);
  check_exact r ~committed:"2015.000" ~done_:"2810.000" ~decided:990000
    ~leader_changes:1
    ~final_egress:[ 87898; 38605282; 87898; 87898; 2733633; 82280; 0; 0 ]

let test_raft_leader_bottleneck () =
  (* Raft's leader alone streams the full log to the newcomer; its egress
     dwarfs the other old servers' once client traffic is subtracted. *)
  let p = params ~cp:100 () in
  let r = Rsm.Reconfig.Raft_runner.run p in
  check "config committed" true (r.reconfig_committed_at <> None);
  let _, bytes = List.nth r.io_series (List.length r.io_series - 1) in
  let sorted = List.sort (fun a b -> compare b a) (Array.to_list bytes) in
  let top = List.nth sorted 0 and second = List.nth sorted 1 in
  check "one server (the leader) did most of the sending" true
    (top > 2 * second)

let test_omni_vs_raft_completion () =
  (* The headline Figure 9 claim at test scale: parallel migration completes
     the reconfiguration several times faster than the leader-only scheme. *)
  let p = params ~cp:100 () in
  let om = Rsm.Reconfig.Omni.run p in
  let ra = Rsm.Reconfig.Raft_runner.run p in
  match (om.migration_done_at, ra.migration_done_at) with
  | Some o, Some r ->
      let o_dur = o -. p.reconfigure_at and r_dur = r -. p.reconfigure_at in
      check "omni reconfigures faster than raft" true (o_dur < r_dur)
  | _ -> Alcotest.fail "a reconfiguration did not complete"

(* §6.1 resilience: a new server cut off from the old leader still completes
   the migration — segments re-route to the other continuing servers. The
   old leader (max pid of c0 = 4) is kept in the new configuration so it is
   one of the donors. *)
let test_omni_migration_survives_leader_cut () =
  let p =
    {
      (params ~new_nodes:[ 0; 1; 2; 4; 5 ] ()) with
      Rsm.Reconfig.faults = [ (1_900.0, Rsm.Reconfig.Cut_link (4, 5)) ];
    }
  in
  let r = Rsm.Reconfig.Omni.run p in
  check "migration completed despite the cut donor" true
    (r.migration_done_at <> None);
  check "throughput resumed" true
    (throughput_after r.series
       ~from:(Option.get r.migration_done_at +. 2_000.0)
       ~until:p.total_ms
     > 1000)

(* §6.1 resilience, crash variant: the old leader dies mid-migration. *)
let test_omni_migration_survives_leader_crash () =
  let p =
    {
      (params ()) with
      Rsm.Reconfig.faults = [ (2_300.0, Rsm.Reconfig.Crash_node 4) ];
    }
  in
  let r = Rsm.Reconfig.Omni.run p in
  check "stop-sign decided" true (r.reconfig_committed_at <> None);
  check "migration completed despite the crash" true
    (r.migration_done_at <> None)

(* The contrast the paper draws in §6.1: when the new server can reach only
   ONE old follower, Omni-Paxos still completes (any server can migrate the
   log) while Raft's leader-driven scheme cannot stream to it — unless that
   single reachable server happens to win leadership. *)
let test_leader_only_vs_any_server_migration () =
  let base = params ~cp:100 () in
  (* Server 5 can reach only old server 0. *)
  let faults =
    List.map (fun j -> (1_900.0, Rsm.Reconfig.Cut_link (j, 5))) [ 1; 2; 3; 4 ]
  in
  let omni = Rsm.Reconfig.Omni.run { base with Rsm.Reconfig.faults } in
  check "omni: any reachable server migrates the log" true
    (omni.migration_done_at <> None);
  let raft = Rsm.Reconfig.Raft_runner.run { base with Rsm.Reconfig.faults } in
  if raft.migration_done_at <> None then begin
    (* Server 0 won leadership in this run, so Raft squeaked through; with
       server 0 cut as well it must certainly block. *)
    let faults =
      List.map (fun j -> (1_900.0, Rsm.Reconfig.Cut_link (j, 5)))
        [ 0; 1; 2; 3; 4 ]
    in
    let r2 = Rsm.Reconfig.Raft_runner.run { base with Rsm.Reconfig.faults } in
    check "raft: new server unreachable from the leader cannot join" true
      (r2.migration_done_at = None)
  end
  else
    check "raft: new server unreachable from the leader cannot join" true
      (raft.migration_done_at = None)

let () =
  Alcotest.run "reconfig"
    [
      ( "reconfig",
        [
          Alcotest.test_case "omni replace one" `Quick test_omni_replace_one;
          Alcotest.test_case "omni replace majority" `Quick
            test_omni_replace_majority;
          Alcotest.test_case "omni migration is parallel" `Quick
            test_omni_migration_is_parallel;
          Alcotest.test_case "raft replace one" `Quick test_raft_replace_one;
          Alcotest.test_case "raft leader bottleneck" `Quick
            test_raft_leader_bottleneck;
          Alcotest.test_case "omni vs raft completion" `Quick
            test_omni_vs_raft_completion;
          Alcotest.test_case "migration survives leader cut" `Quick
            test_omni_migration_survives_leader_cut;
          Alcotest.test_case "migration survives leader crash" `Quick
            test_omni_migration_survives_leader_crash;
          Alcotest.test_case "leader-only vs any-server migration" `Quick
            test_leader_only_vs_any_server_migration;
        ] );
    ]
