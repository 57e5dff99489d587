(* Unit tests driving the bare pure BLE decision core (Omnipaxos.Ble_core)
   — no simnet, no callbacks, no reply table: the harness hands the core a
   round summary and checks the state and decision it returns. Exercises
   value semantics (a tick never mutates its input state), the candidate
   rule with and without the QC signal, the takeover bump and the §8
   connectivity stamp, and the election/takeover behaviours test_ble.ml
   checks through the adapter. Per-source reply handling (latest reply
   wins, stale rounds and non-members ignored) lives in the adapter and is
   tested in test_ble.ml. *)

module C = Omnipaxos.Ble_core
module Ballot = Omnipaxos.Ballot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ballot ?(priority = 0) n pid = { Ballot.n; priority; pid }

let summary ?(max_qc = Ballot.bottom) ?(max_seen = Ballot.bottom) heard =
  { C.heard; max_qc; max_seen = Ballot.max max_qc max_seen }

let config ?(qc_signal = true) ?(connectivity_priority = false) ~id n =
  let peers = List.filter (fun j -> j <> id) (List.init n Fun.id) in
  C.make_config ~id ~peers ~qc_signal ~connectivity_priority ()

(* Node 0 of an n-node cluster at a round where checkLeader runs. *)
let at_round_2 ?leader cfg =
  { (C.init ~ballot_n:1 cfg) with C.round = 2; C.leader = leader }

let elected = function
  | Some (C.Elected { ballot; _ }) -> Some ballot
  | Some (C.Ballot_bumped _) | None -> None

let bumped = function
  | Some (C.Ballot_bumped b) -> Some b
  | Some (C.Elected _) | None -> None

(* A functional mini-cluster: each round, every node closes its round over
   the replies of the peers it reaches both ways, which carry the peers'
   state as of the previous round. Only the harness writes [states]. *)
type harness = {
  cfgs : C.config array;
  mutable states : C.state array;
  link : bool array array;
  mutable decisions : (int * C.output) list;  (* newest first *)
}

let make n =
  let cfgs = Array.init n (fun id -> config ~id n) in
  {
    cfgs;
    states = Array.map (C.init ~ballot_n:1) cfgs;
    link = Array.make_matrix n n true;
    decisions = [];
  }

let round h =
  let prev = h.states in
  h.states <-
    Array.mapi
      (fun id s ->
        let r =
          List.fold_left
            (fun r p ->
              if h.link.(id).(p) && h.link.(p).(id) then
                let b = prev.(p).C.ballot in
                let max_qc = if prev.(p).C.qc then b else Ballot.bottom in
                {
                  C.heard = r.C.heard + 1;
                  max_qc = Ballot.max r.C.max_qc max_qc;
                  max_seen = Ballot.max r.C.max_seen b;
                }
              else r)
            (summary 0) h.cfgs.(id).C.peers
        in
        let s', out = C.tick h.cfgs.(id) s r in
        Option.iter (fun o -> h.decisions <- (id, o) :: h.decisions) out;
        s')
      prev

let rounds h k =
  for _ = 1 to k do
    round h
  done

let leader_pid h id =
  match h.states.(id).C.leader with Some b -> b.Ballot.pid | None -> -1

let isolate h a =
  Array.iteri
    (fun j _ ->
      h.link.(a).(j) <- false;
      h.link.(j).(a) <- false)
    h.link

(* ------------------------------------------------------------------ *)

let test_tick_is_a_value () =
  let cfg = config ~id:0 3 in
  let s0 = at_round_2 cfg in
  let r = summary ~max_qc:(ballot 1 2) 2 in
  let r1 = C.tick cfg s0 r in
  let r2 = C.tick cfg s0 r in
  check "same input, same output" true (r1 = r2);
  check "check_round is a value too" true
    (C.check_round cfg s0 r = C.check_round cfg s0 r);
  check "input state untouched" true
    (s0 = at_round_2 cfg && s0.C.round = 2 && Option.is_none s0.C.leader
   && not s0.C.qc);
  let s1, out = r1 in
  check_int "round advanced" 3 s1.C.round;
  check "elected the QC reply's ballot" true (elected out = Some (ballot 1 2))

let test_tick_outputs () =
  let cfg = config ~id:0 3 in
  let s = C.init ~ballot_n:1 cfg in
  let s1, out1 = C.tick cfg s (summary ~max_qc:(ballot 1 2) 2) in
  check "round 0: QC, no decision" true (s1.C.qc && Option.is_none out1);
  let s2, out2 = C.tick cfg s1 (summary ~max_qc:(ballot 1 2) 2) in
  check "round 1: still no decision" true
    (Option.is_none out2 && Option.is_none s2.C.leader);
  let s3, out3 = C.tick cfg s2 (summary ~max_qc:(ballot 1 2) 2) in
  check "round 2 elects" true (elected out3 = Some (ballot 1 2));
  check "first election is flagged first" true
    (match out3 with Some (C.Elected { first; _ }) -> first | _ -> false);
  check_int "round 3 open" 3 s3.C.round;
  let _, out4 = C.tick cfg s3 (summary ~max_qc:(ballot 2 1) 2) in
  check "a later change is not first" true
    (match out4 with
    | Some (C.Elected { first; ballot = b }) -> (not first) && b = ballot 2 1
    | _ -> false)

let test_below_quorum () =
  let cfg = config ~id:0 5 in
  let s = { (at_round_2 ~leader:(ballot 1 4) cfg) with C.qc = true } in
  let s', out = C.check_round cfg s (summary ~max_qc:(ballot 9 3) 1) in
  check "not QC with self + 1 of 5" false s'.C.qc;
  check "no decision" true (Option.is_none out);
  check "leader kept" true (s'.C.leader = Some (ballot 1 4))

let test_qc_signal_ablation () =
  (* Two replies, the higher one (pid 2) not QC. With the QC signal only
     QC replies and self are candidates; ablated, every reply is. *)
  let run ~qc_signal =
    let cfg = config ~qc_signal ~id:0 3 in
    let r = summary ~max_qc:(ballot 1 1) ~max_seen:(ballot 1 2) 2 in
    elected (snd (C.check_round cfg (at_round_2 cfg) r))
  in
  check "with QC signal: the QC reply wins" true
    (run ~qc_signal:true = Some (ballot 1 1));
  check "ablated: the highest reply wins" true
    (run ~qc_signal:false = Some (ballot 1 2));
  let cfg = config ~id:0 3 in
  let no_qc = summary ~max_seen:(ballot 5 2) 2 in
  check "no QC reply: self is the only candidate" true
    (elected (snd (C.check_round cfg (at_round_2 cfg) no_qc))
    = Some (ballot 1 0))

let test_takeover_bumps_above_max_seen () =
  (* The elected leader (n=5) is no longer a candidate. A non-QC reply
     carries n=7: the bump clears it too, not only the stale leader. *)
  let cfg = config ~id:0 3 in
  let s = at_round_2 ~leader:(ballot 5 2) cfg in
  let s', out =
    C.check_round cfg s (summary ~max_qc:(ballot 1 1) ~max_seen:(ballot 7 2) 2)
  in
  check "bumped to max seen + 1" true (bumped out = Some (ballot 8 0));
  check "own ballot is the bumped one" true (s'.C.ballot = ballot 8 0);
  check "leader unchanged until a later round" true
    (s'.C.leader = Some (ballot 5 2));
  let _, out = C.check_round cfg s (summary ~max_qc:(ballot 1 1) 2) in
  check "no higher reply: bumped above the stale leader" true
    (bumped out = Some (ballot 6 0))

let test_connectivity_priority_stamp () =
  let dead_leader = ballot 5 9 in
  let bump ~connectivity_priority =
    let cfg = config ~connectivity_priority ~id:0 5 in
    let s = at_round_2 ~leader:dead_leader cfg in
    bumped (snd (C.check_round cfg s (summary ~max_qc:(ballot 1 1) 3)))
  in
  check "priority stamped with heard + 1" true
    (bump ~connectivity_priority:true = Some (ballot ~priority:4 6 0));
  check "priority untouched without the optimisation" true
    (bump ~connectivity_priority:false = Some (ballot 6 0))

let test_initial_election () =
  let h = make 3 in
  rounds h 3;
  check_int "everyone elects the highest ballot (pid 2)" 2 (leader_pid h 0);
  check_int "node 1 agrees" 2 (leader_pid h 1);
  check_int "node 2 agrees" 2 (leader_pid h 2);
  check "every node is quorum-connected" true
    (Array.for_all (fun s -> s.C.qc) h.states);
  let firsts =
    List.filter_map
      (fun (_, o) ->
        match o with
        | C.Elected { first; _ } -> Some first
        | C.Ballot_bumped _ -> None)
      h.decisions
  in
  check "three initial elections, all flagged first" true
    (List.length firsts = 3 && List.for_all Fun.id firsts)

let test_takeover_after_leader_death () =
  let h = make 3 in
  rounds h 3;
  h.decisions <- [];
  isolate h 2;
  rounds h 4;
  check_int "survivor 0 follows the new leader" 1 (leader_pid h 0);
  check_int "survivor 1 leads" 1 (leader_pid h 1);
  let bumps = List.filter_map (fun (_, o) -> bumped (Some o)) h.decisions in
  check "takeover bumps ballots above the dead leader's" true
    (bumps <> [] && List.for_all (fun b -> b.Ballot.n > 1) bumps)

let test_msg_size () =
  check_int "request size" 12 (C.msg_size (C.Hb_request { round = 1 }));
  check_int "reply size" 29
    (C.msg_size
       (C.Hb_reply { round = 1; ballot = Ballot.initial ~pid:0 (); qc = true }))

let () =
  Alcotest.run "ble_core"
    [
      ( "pure core",
        [
          Alcotest.test_case "tick is a value" `Quick test_tick_is_a_value;
          Alcotest.test_case "tick outputs" `Quick test_tick_outputs;
          Alcotest.test_case "below quorum" `Quick test_below_quorum;
          Alcotest.test_case "qc-signal ablation" `Quick test_qc_signal_ablation;
          Alcotest.test_case "takeover bumps above max seen" `Quick
            test_takeover_bumps_above_max_seen;
          Alcotest.test_case "connectivity-priority stamp" `Quick
            test_connectivity_priority_stamp;
          Alcotest.test_case "initial election" `Quick test_initial_election;
          Alcotest.test_case "takeover after leader death" `Quick
            test_takeover_after_leader_death;
          Alcotest.test_case "msg sizes" `Quick test_msg_size;
        ] );
    ]
