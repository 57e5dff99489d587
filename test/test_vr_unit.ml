(* Handler-level VR unit tests: the EQC discipline (Do_view_change only
   after a quorum of Start_view_change), view-change joining/forwarding,
   round-robin leadership, and timer-driven view escalation. *)

module V = Vr.Node

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type harness = { node : V.t; sent : (int * V.msg) list ref }

let make ?(id = 0) () =
  let sent = ref [] in
  let peers = List.filter (fun j -> j <> id) [ 0; 1; 2; 3; 4 ] in
  let node =
    V.create ~id ~peers ~election_ticks:10
      ~send:(fun ~dst m -> sent := (dst, m) :: !sent)
      ()
  in
  { node; sent }

let svc view = V.Vr (V.Start_view_change { view })
let dvc view = V.Vr (V.Do_view_change { view })

let sent_dvc h =
  List.filter_map
    (function dst, V.Vr (V.Do_view_change { view }) -> Some (dst, view) | _ -> None)
    !(h.sent)

let sent_svc h =
  List.filter_map
    (function dst, V.Vr (V.Start_view_change { view }) -> Some (dst, view) | _ -> None)
    !(h.sent)

let test_initial_leader_is_view_zero () =
  let h = make ~id:0 () in
  check "server 0 leads view 0" true (V.is_leader h.node);
  let h1 = make ~id:1 () in
  check "server 1 does not" true (not (V.is_leader h1.node))

let test_join_and_forward_higher_view () =
  let h = make ~id:1 () in
  V.handle h.node ~src:2 (svc 1);
  check "joined the view change" true (V.status h.node = V.View_change);
  (* Joining forwards the SVC to everyone — the gossip the paper calls out. *)
  check_int "forwarded to all peers" 4 (List.length (sent_svc h))

let test_eqc_requires_svc_quorum () =
  (* Server 2 votes for the view-1 leader (server 1) only once it has
     gathered Start_view_change from a quorum. *)
  let h = make ~id:2 () in
  V.handle h.node ~src:0 (svc 1);
  check "one SVC (+own) is not a quorum of 5" true (sent_dvc h = []);
  V.handle h.node ~src:3 (svc 1);
  check "quorum reached: DVC sent to the view-1 leader" true
    (sent_dvc h = [ (1, 1) ]);
  V.handle h.node ~src:4 (svc 1);
  check "DVC sent only once" true (sent_dvc h = [ (1, 1) ])

let test_leader_elected_on_dvc_quorum () =
  (* Server 1 is the leader-elect of view 1. *)
  let h = make ~id:1 () in
  V.handle h.node ~src:2 (svc 1);
  V.handle h.node ~src:3 (svc 1);
  (* Its own (EQC-gated) vote is in; two more DVCs complete the quorum. *)
  V.handle h.node ~src:2 (dvc 1);
  V.handle h.node ~src:3 (dvc 1);
  check "leads view 1" true (V.is_leader h.node && V.view h.node = 1);
  check "broadcast StartView" true
    (List.exists
       (function _, V.Vr (V.Start_view { view = 1 }) -> true | _ -> false)
       !(h.sent))

let test_dvc_without_svc_quorum_is_ignored () =
  let h = make ~id:1 () in
  V.handle h.node ~src:2 (svc 1);
  (* DVCs arrive but our own EQC vote is missing (no SVC quorum): even a
     majority of external DVCs must not elect us. *)
  V.handle h.node ~src:2 (dvc 1);
  V.handle h.node ~src:3 (dvc 1);
  V.handle h.node ~src:4 (dvc 1);
  check "not elected without own EQC vote" true (not (V.is_leader h.node))

(* Start_view_change and Do_view_change from pids outside [0, 5) never
   count towards a quorum. *)
let test_non_members_never_count () =
  let voter = make ~id:2 () in
  List.iter (fun src -> V.handle voter.node ~src (svc 1)) [ 0; 7; 8 ];
  check "non-members' SVCs make no SVC quorum" true (sent_dvc voter = []);
  let h = make ~id:1 () in
  V.handle h.node ~src:2 (svc 1);
  V.handle h.node ~src:3 (svc 1);
  V.handle h.node ~src:7 (dvc 1);
  V.handle h.node ~src:8 (dvc 1);
  check "non-members' DVCs make no DVC quorum" true
    (not (V.is_leader h.node));
  V.handle h.node ~src:2 (dvc 1);
  V.handle h.node ~src:3 (dvc 1);
  check "members' DVCs elect" true (V.is_leader h.node && V.view h.node = 1)

let test_start_view_adopts () =
  let h = make ~id:3 () in
  V.handle h.node ~src:2 (svc 1);
  V.handle h.node ~src:1 (V.Vr (V.Start_view { view = 1 }));
  check "normal in the new view" true
    (V.status h.node = V.Normal && V.view h.node = 1);
  check "leader is view mod n" true (V.leader_pid h.node = Some 1)

let test_timer_escalates_views () =
  let h = make ~id:2 () in
  (* No pings: time out into view change for view 1, then escalate. *)
  for _ = 1 to 10 do
    V.tick h.node
  done;
  check "first view change proposes view 1" true
    (List.mem (0, 1) (sent_svc h) || List.exists (fun (_, v) -> v = 1) (sent_svc h));
  for _ = 1 to 10 do
    V.tick h.node
  done;
  check "escalates to view 2 when uncompleted" true
    (List.exists (fun (_, v) -> v = 2) (sent_svc h))

let test_ping_prevents_view_change () =
  let h = make ~id:2 () in
  for _ = 1 to 8 do
    V.tick h.node;
    V.handle h.node ~src:0 (V.Vr (V.Ping { view = 0 }))
  done;
  for _ = 1 to 8 do
    V.tick h.node;
    V.handle h.node ~src:0 (V.Vr (V.Ping { view = 0 }))
  done;
  check "no view change while pings arrive" true (sent_svc h = [])

let () =
  Alcotest.run "vr_unit"
    [
      ( "view-change",
        [
          Alcotest.test_case "initial leader" `Quick
            test_initial_leader_is_view_zero;
          Alcotest.test_case "join and forward" `Quick
            test_join_and_forward_higher_view;
          Alcotest.test_case "EQC requires SVC quorum" `Quick
            test_eqc_requires_svc_quorum;
          Alcotest.test_case "elected on DVC quorum" `Quick
            test_leader_elected_on_dvc_quorum;
          Alcotest.test_case "DVC ignored without own EQC vote" `Quick
            test_dvc_without_svc_quorum_is_ignored;
          Alcotest.test_case "non-members never count" `Quick
            test_non_members_never_count;
          Alcotest.test_case "StartView adopts" `Quick test_start_view_adopts;
          Alcotest.test_case "timer escalates views" `Quick
            test_timer_escalates_views;
          Alcotest.test_case "pings prevent view change" `Quick
            test_ping_prevents_view_change;
        ] );
    ]
