(* Unit tests for Ballot Leader Election with hand-driven message delivery:
   the LE1-LE3 properties of §5.1, the takeover mechanics of each §2
   scenario at the BLE level, the QC-signal ablation, the adapter's
   per-source reply handling (latest reply wins; stale rounds and
   non-members ignored) and its allocation-free heartbeat path. *)

module Ble = Omnipaxos.Ble
module Ballot = Omnipaxos.Ballot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A tiny synchronous harness: n BLE instances, a link matrix, message
   queues drained between ticks. *)
type harness = {
  n : int;
  instances : Ble.t array;
  queues : (int * int * Ble.msg) Queue.t;  (* src, dst, msg *)
  link : bool array array;
  elected : (int * Ballot.t) list ref;  (* every on_leader event, per node *)
  muted : bool ref;  (* drop every send instead of queueing it *)
}

let make_harness ?(qc_signal = true) ?(connectivity_priority = false)
    ?priority_of n =
  let queues = Queue.create () in
  let elected = ref [] in
  let muted = ref false in
  let instances =
    Array.init n (fun id ->
        let peers = List.filter (fun j -> j <> id) (List.init n Fun.id) in
        let priority =
          match priority_of with Some f -> f id | None -> 0
        in
        Ble.create ~id ~peers ~qc_signal ~connectivity_priority ~priority
          ~persistent:(Ble.fresh_persistent ())
          ~send:(fun ~dst m -> if not !muted then Queue.add (id, dst, m) queues)
          ~on_leader:(fun b -> elected := (id, b) :: !elected)
          ())
  in
  { n; instances; queues; link = Array.make_matrix n n true; elected; muted }

let drain h =
  while not (Queue.is_empty h.queues) do
    let src, dst, m = Queue.pop h.queues in
    if h.link.(src).(dst) then Ble.handle h.instances.(dst) ~src m
  done

let round h =
  Array.iter Ble.tick h.instances;
  drain h;
  drain h

let rounds h k = for _ = 1 to k do round h done

let leader_of h id = Ble.leader h.instances.(id)

let cut h a b =
  h.link.(a).(b) <- false;
  h.link.(b).(a) <- false

let cut_oneway h ~src ~dst = h.link.(src).(dst) <- false

let test_initial_election () =
  let h = make_harness 5 in
  rounds h 4;
  (* All servers elect the same leader: the max ballot belongs to pid 4. *)
  for id = 0 to 4 do
    match leader_of h id with
    | Some b -> check_int "all elect pid 4" 4 b.Ballot.pid
    | None -> Alcotest.fail "no leader elected"
  done

let test_le3_monotone_unique () =
  let h = make_harness 3 in
  rounds h 4;
  (* Kill the leader and let another take over; every server's sequence of
     elected ballots must be strictly increasing (LE3). *)
  cut h 2 0;
  cut h 2 1;
  rounds h 6;
  let per_node id =
    List.rev
      (List.filter_map
         (fun (n, b) -> if n = id then Some b else None)
         !(h.elected))
  in
  let strictly_increasing l =
    let rec go = function
      | a :: (b :: _ as rest) -> Ballot.(b > a) && go rest
      | [ _ ] | [] -> true
    in
    go l
  in
  for id = 0 to 1 do
    check "ballots strictly increase" true (strictly_increasing (per_node id))
  done

let test_quorum_loss_takeover () =
  let h = make_harness 5 in
  rounds h 4;
  check_int "initial leader" 4 (Option.get (leader_of h 0)).Ballot.pid;
  (* Quorum loss: only node 0 keeps all its links. Leader 4 stays connected
     to 0, so it is alive — but no longer QC. *)
  for a = 1 to 4 do
    for b = a + 1 to 4 do
      cut h a b
    done
  done;
  rounds h 6;
  check_int "hub elected itself" 0 (Option.get (leader_of h 0)).Ballot.pid;
  check "old leader reports not QC" true
    (not (Ble.is_quorum_connected h.instances.(4)))

let test_non_qc_does_not_elect () =
  let h = make_harness 5 in
  rounds h 4;
  for a = 1 to 4 do
    for b = a + 1 to 4 do
      cut h a b
    done
  done;
  let before = (Option.get (leader_of h 1)).Ballot.pid in
  rounds h 6;
  (* LE1 requires only QC servers to elect; the spokes (not QC) keep their
     last elected leader rather than following ballots they cannot vet. *)
  check_int "spoke's elected leader unchanged" before
    (Option.get (leader_of h 1)).Ballot.pid

let test_constrained_takeover () =
  let h = make_harness 5 in
  rounds h 4;
  (* Leader 4 fully isolated; node 0 the only QC server. *)
  for j = 0 to 3 do
    cut h 4 j
  done;
  for a = 1 to 3 do
    for b = a + 1 to 3 do
      cut h a b
    done
  done;
  rounds h 6;
  check_int "only QC server takes over" 0
    (Option.get (leader_of h 0)).Ballot.pid

let test_chained_single_change () =
  let h = make_harness 3 in
  rounds h 4;
  check_int "initial leader" 2 (Option.get (leader_of h 0)).Ballot.pid;
  cut h 2 1;
  rounds h 6;
  (* Node 1 takes over; node 0 follows the higher ballot; and because
     heartbeats carry no leader identity, the stale leader 2 cannot learn of
     it via node 0 and does not fight back. *)
  check_int "node 0 follows the takeover" 1
    (Option.get (leader_of h 0)).Ballot.pid;
  check_int "node 1 leads" 1 (Option.get (leader_of h 1)).Ballot.pid;
  let b_after = (Ble.current_ballot h.instances.(1)).Ballot.n in
  rounds h 10;
  check_int "no livelock: ballot stable" b_after
    (Ble.current_ballot h.instances.(1)).Ballot.n

(* Ablation: without the QC flag in heartbeats, the quorum-loss scenario
   deadlocks — the hub keeps seeing the stale leader's (higher) ballot among
   the candidates and never takes over (Table 1's "QC status heartbeats"
   column). *)
let test_ablation_no_qc_signal () =
  let h = make_harness ~qc_signal:false 5 in
  rounds h 4;
  check_int "initial leader" 4 (Option.get (leader_of h 0)).Ballot.pid;
  for a = 1 to 4 do
    for b = a + 1 to 4 do
      cut h a b
    done
  done;
  rounds h 10;
  check_int "hub never takes over without the QC flag" 4
    (Option.get (leader_of h 0)).Ballot.pid

(* Half-duplex partial connectivity (§8): the heartbeat request/response
   pair only counts as connectivity when both directions work, so a leader
   that can send but not receive (or vice versa) loses quorum-connectivity
   and a full-duplex QC server takes over. *)
let test_half_duplex_incoming_lost () =
  let h = make_harness 5 in
  rounds h 4;
  check_int "initial leader" 4 (Option.get (leader_of h 0)).Ballot.pid;
  (* Leader 4's incoming directions die: its requests go out, but replies
     never come back. *)
  for j = 0 to 3 do
    cut_oneway h ~src:j ~dst:4
  done;
  rounds h 6;
  check "leader detects it lost full-duplex QC" true
    (not (Ble.is_quorum_connected h.instances.(4)));
  check "a full-duplex server leads" true
    ((Option.get (leader_of h 0)).Ballot.pid <> 4)

let test_half_duplex_outgoing_lost () =
  let h = make_harness 5 in
  rounds h 4;
  (* Leader 4's outgoing directions die: requests never reach the peers. *)
  for j = 0 to 3 do
    cut_oneway h ~src:4 ~dst:j
  done;
  rounds h 6;
  check "leader not QC with dead outgoing links" true
    (not (Ble.is_quorum_connected h.instances.(4)));
  check "a full-duplex server leads" true
    ((Option.get (leader_of h 0)).Ballot.pid <> 4)

(* §8 connectivity optimisation: among simultaneous takeover candidates at
   the same round number, the ballot priority carries each candidate's
   connectivity, so the best-connected one wins — here node 0, which would
   lose the plain pid tie-break against node 3. *)
(* After the leader dies, the remaining topology is
   0-1, 0-2, 0-3, 1-2: node 0 hears 3 peers (QC, connectivity 4), nodes 1
   and 2 hear 2 peers (QC, connectivity 3), node 3 hears only node 0 (not
   QC). *)
let connectivity_setup h =
  rounds h 4;
  check_int "initial leader" 4 (Option.get (leader_of h 0)).Ballot.pid;
  for j = 0 to 3 do
    cut h 4 j
  done;
  cut h 1 3;
  cut h 2 3;
  rounds h 8

let test_connectivity_priority_prefers_connected () =
  let h = make_harness ~connectivity_priority:true 5 in
  connectivity_setup h;
  check_int "best-connected candidate wins" 0
    (Option.get (leader_of h 0)).Ballot.pid

let test_without_connectivity_priority_pid_wins () =
  let h = make_harness ~connectivity_priority:false 5 in
  connectivity_setup h;
  check_int "plain tie-break favours the higher pid among QC candidates" 2
    (Option.get (leader_of h 0)).Ballot.pid

let test_priority_breaks_ties () =
  (* Node 0 gets the highest priority. *)
  let h = make_harness ~priority_of:(fun id -> 10 - id) 3 in
  rounds h 4;
  check_int "priority wins the tie" 0 (Option.get (leader_of h 1)).Ballot.pid

(* Per-source reply handling, driven through the adapter: node 0 of three
   gets replies by hand and closes rounds with [tick]; its requests are
   dropped. Two ticks open round 2, the first round that elects. *)
let lone_node ?(peers = [ 1; 2 ]) () =
  let sent = ref [] in
  let b =
    Ble.create ~id:0 ~peers ~persistent:(Ble.fresh_persistent ())
      ~send:(fun ~dst m -> sent := (dst, m) :: !sent)
      ~on_leader:ignore ()
  in
  Ble.tick b;
  Ble.tick b;
  (b, sent)

let reply ~round ~n ~pid ~qc =
  Ble.Hb_reply { round; ballot = { Ballot.n; priority = 0; pid }; qc }

let test_request_reply_echo () =
  let b, sent = lone_node () in
  sent := [];
  Ble.handle b ~src:2 (Ble.Hb_request { round = 7 });
  Ble.handle b ~src:1 (Ble.Hb_request { round = 7 });
  Ble.handle b ~src:1 (Ble.Hb_request { round = 8 });
  match List.rev !sent with
  | [ (2, r1); (1, r2); (1, r3) ] ->
      let ballot = Ble.current_ballot b in
      check "echoes the round with our ballot and QC flag" true
        (r1 = Ble.Hb_reply { round = 7; ballot; qc = false });
      check "one reply value per round" true (r1 == r2);
      check "a new round gets its own reply" true
        (r3 = Ble.Hb_reply { round = 8; ballot; qc = false })
  | _ -> Alcotest.fail "expected one reply per request, to its sender"

let test_latest_reply_wins () =
  let elect_after first second =
    let b, _ = lone_node () in
    Ble.handle b ~src:1 first;
    Ble.handle b ~src:1 second;
    Ble.tick b;
    (Option.get (Ble.leader b)).Ballot.n
  in
  check_int "a later, lower reply replaces the earlier one" 1
    (elect_after (reply ~round:2 ~n:9 ~pid:1 ~qc:true)
       (reply ~round:2 ~n:1 ~pid:1 ~qc:true));
  check_int "a later, higher reply replaces the earlier one" 9
    (elect_after (reply ~round:2 ~n:1 ~pid:1 ~qc:true)
       (reply ~round:2 ~n:9 ~pid:1 ~qc:true))

let test_stale_round_ignored () =
  let b, _ = lone_node () in
  Ble.handle b ~src:1 (reply ~round:1 ~n:9 ~pid:1 ~qc:true);
  Ble.handle b ~src:2 (reply ~round:5 ~n:9 ~pid:2 ~qc:true);
  Ble.tick b;
  check "no reply of round 2: not QC" false (Ble.is_quorum_connected b);
  check "nothing elected" true (Option.is_none (Ble.leader b));
  (* A reply of round 2 does not count once round 3 is open either. *)
  Ble.handle b ~src:1 (reply ~round:2 ~n:9 ~pid:1 ~qc:true);
  Ble.tick b;
  check "a late reply does not count" false (Ble.is_quorum_connected b)

(* Replies from servers outside the configuration — beyond the pid range,
   negative, or a gap inside it — must neither make a node QC nor get
   elected. *)
let test_non_member_replies_dropped () =
  let flood ?peers srcs =
    let b, _ = lone_node ?peers () in
    for round = 2 to 4 do
      List.iter
        (fun src -> Ble.handle b ~src (reply ~round ~n:9 ~pid:src ~qc:true))
        srcs;
      Ble.tick b
    done;
    check "isolated node is not QC" false (Ble.is_quorum_connected b);
    check "no non-member is elected" true (Option.is_none (Ble.leader b))
  in
  flood [ 7; -1 ];
  flood ~peers:[ 1; 3 ] [ 2; 7; -1 ]

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* An n-node cluster after [rounds 4], with node 0's incoming heartbeats of
   the next round captured: the requests its peers sent and the replies to
   its own requests. Sends are muted afterwards. *)
let steady_heartbeats n =
  let h = make_harness n in
  rounds h 4;
  Array.iter Ble.tick h.instances;
  let take () =
    let msgs = List.of_seq (Queue.to_seq h.queues) in
    Queue.clear h.queues;
    List.iter (fun (src, dst, m) -> Ble.handle h.instances.(dst) ~src m) msgs;
    List.filter_map
      (fun (src, dst, m) -> if dst = 0 then Some (src, m) else None)
      msgs
  in
  let requests = take () in
  let replies = take () in
  h.muted := true;
  (h, Array.of_list requests, Array.of_list replies)

let test_heartbeats_alloc_free () =
  List.iter
    (fun n ->
      let h, requests, replies = steady_heartbeats n in
      let b = h.instances.(0) in
      let handle_1000 msgs () =
        for i = 0 to 999 do
          let src, m = msgs.(i mod Array.length msgs) in
          Ble.handle b ~src m
        done
      in
      let label what =
        Printf.sprintf "1000 %s at n=%d allocate nothing" what n
      in
      Alcotest.(check (float 0.)) (label "requests") 0.
        (minor_words (handle_1000 requests));
      Alcotest.(check (float 0.)) (label "replies") 0.
        (minor_words (handle_1000 replies));
      Ble.tick b;
      check "replies still counted" true (Ble.is_quorum_connected b);
      check_int "leader unchanged" (n - 1)
        (Option.get (Ble.leader b)).Ballot.pid)
    [ 5; 33 ]

let test_tick_alloc_flat () =
  let cost n =
    let h, _, _ = steady_heartbeats n in
    minor_words (fun () -> Ble.tick h.instances.(0))
  in
  Alcotest.(check (float 0.)) "one tick costs the same words at n=5 and n=33"
    (cost 5) (cost 33)

(* LE1 / LE2 as properties over random static connectivity graphs: after the
   ballots stabilise,
   - LE1: every quorum-connected server elects some quorum-connected server
     (if any QC server exists);
   - LE2: there is a majority S such that no two QC servers in S elect
     differently. *)
let prop_le1_le2_random_graphs =
  let n = 5 in
  let quorum = 3 in
  let edges =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None)
                  (List.init n Fun.id))
      (List.init n Fun.id)
  in
  QCheck.Test.make ~name:"LE1/LE2 on random static graphs" ~count:150
    QCheck.(list_of_size (Gen.return (List.length edges)) bool)
    (fun mask ->
      let h = make_harness n in
      (* Start fully connected so an initial leader exists, then apply the
         random graph. *)
      rounds h 4;
      List.iteri
        (fun i (a, b) -> if not (List.nth mask i) then cut h a b)
        edges;
      rounds h 12;
      let connected a b = h.link.(a).(b) in
      let degree i =
        List.length
          (List.filter (fun j -> j <> i && connected i j) (List.init n Fun.id))
      in
      let qc i = degree i + 1 >= quorum in
      let elected i = Option.map (fun b -> b.Ballot.pid) (leader_of h i) in
      let le1 =
        List.for_all
          (fun i ->
            (not (qc i))
            || match elected i with Some l -> qc l | None -> false)
          (List.init n Fun.id)
      in
      (* LE2: some majority whose QC members agree. *)
      let rec subsets k from =
        if k = 0 then [ [] ]
        else if from >= n then []
        else
          List.map (fun s -> from :: s) (subsets (k - 1) (from + 1))
          @ subsets k (from + 1)
      in
      let le2 =
        (not (List.exists qc (List.init n Fun.id)))
        || List.exists
             (fun s ->
               let qc_elects =
                 List.filter_map
                   (fun i -> if qc i then Some (elected i) else None)
                   s
               in
               match qc_elects with
               | [] -> true
               | e :: rest -> List.for_all (fun e' -> e' = e) rest)
             (subsets quorum 0)
      in
      le1 && le2)

let () =
  Alcotest.run "ble"
    [
      ( "ble",
        [
          Alcotest.test_case "initial election" `Quick test_initial_election;
          Alcotest.test_case "LE3 monotone unique" `Quick
            test_le3_monotone_unique;
          Alcotest.test_case "quorum-loss takeover" `Quick
            test_quorum_loss_takeover;
          Alcotest.test_case "non-QC does not elect" `Quick
            test_non_qc_does_not_elect;
          Alcotest.test_case "constrained takeover" `Quick
            test_constrained_takeover;
          Alcotest.test_case "chained single change" `Quick
            test_chained_single_change;
          Alcotest.test_case "ablation: no QC signal" `Quick
            test_ablation_no_qc_signal;
          Alcotest.test_case "half-duplex: incoming lost" `Quick
            test_half_duplex_incoming_lost;
          Alcotest.test_case "half-duplex: outgoing lost" `Quick
            test_half_duplex_outgoing_lost;
          Alcotest.test_case "connectivity priority wins" `Quick
            test_connectivity_priority_prefers_connected;
          Alcotest.test_case "pid tie-break without it" `Quick
            test_without_connectivity_priority_pid_wins;
          Alcotest.test_case "priority breaks ties" `Quick
            test_priority_breaks_ties;
          Alcotest.test_case "request/reply echo" `Quick test_request_reply_echo;
          Alcotest.test_case "latest reply from a source wins" `Quick
            test_latest_reply_wins;
          Alcotest.test_case "stale-round replies are ignored" `Quick
            test_stale_round_ignored;
          Alcotest.test_case "non-member replies dropped" `Quick
            test_non_member_replies_dropped;
          Alcotest.test_case "heartbeats allocate nothing" `Quick
            test_heartbeats_alloc_free;
          Alcotest.test_case "tick allocation flat in n" `Quick
            test_tick_alloc_flat;
          QCheck_alcotest.to_alcotest prop_le1_le2_random_graphs;
        ] );
    ]
