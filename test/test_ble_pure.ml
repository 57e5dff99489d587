(* Unit tests driving the bare pure BLE core (Omnipaxos.Ble_core) — no
   simnet, no callbacks, no mutation inside the protocol: the harness here
   owns all state and routes the core's Send outputs by hand. Exercises
   value semantics (a step never mutates its input state), output ordering,
   the reply-set invariants, and the same election/takeover behaviours
   test_ble.ml checks through the adapter. *)

module C = Omnipaxos.Ble_core
module Ballot = Omnipaxos.Ballot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A functional mini-cluster: configs are fixed, states live in an array
   that only the test harness writes, decisions (Elected / Ballot_bumped)
   accumulate in [events] newest-first. *)
type harness = {
  cfgs : C.config array;
  states : C.state array;
  link : bool array array;
  events : (int * C.output) list ref;
}

let make ?(qc_signal = true) ?(connectivity_priority = false) ?priority_of n =
  let cfgs =
    Array.init n (fun id ->
        let peers = List.filter (fun j -> j <> id) (List.init n Fun.id) in
        C.make_config ~id ~peers ~qc_signal ~connectivity_priority ())
  in
  let states =
    Array.init n (fun id ->
        let priority = match priority_of with Some f -> f id | None -> 0 in
        C.init ~priority ~ballot_n:1 cfgs.(id))
  in
  { cfgs; states; link = Array.make_matrix n n true; events = ref [] }

(* Apply one node's outputs: record decisions, turn sends into queued
   (src, dst, msg) deliveries. *)
let route h node outs queue =
  List.fold_left
    (fun queue (o : C.output) ->
      match o with
      | C.Send { dst; msg } -> queue @ [ (node, dst, msg) ]
      | C.Elected _ | C.Ballot_bumped _ ->
          h.events := (node, o) :: !(h.events);
          queue)
    queue outs

let rec deliver h = function
  | [] -> ()
  | (src, dst, msg) :: rest ->
      if h.link.(src).(dst) then begin
        let s', outs = C.step h.cfgs.(dst) h.states.(dst) (C.Deliver { src; msg }) in
        h.states.(dst) <- s';
        deliver h (route h dst outs rest)
      end
      else deliver h rest

let round h =
  let queue =
    Array.to_list
      (Array.mapi
         (fun id () ->
           let s', outs = C.step h.cfgs.(id) h.states.(id) C.Tick in
           h.states.(id) <- s';
           route h id outs [])
         (Array.make (Array.length h.states) ()))
    |> List.concat
  in
  deliver h queue

let rounds h k =
  for _ = 1 to k do
    round h
  done

let leader_pid h id =
  match h.states.(id).C.leader with
  | Some b -> b.Ballot.pid
  | None -> -1

let cut h a b =
  h.link.(a).(b) <- false;
  h.link.(b).(a) <- false

let isolate h a =
  Array.iteri (fun j _ -> if j <> a then cut h a j) h.link

(* ------------------------------------------------------------------ *)

let test_step_is_a_value () =
  let h = make 3 in
  let s0 = h.states.(0) in
  let r1 = C.step h.cfgs.(0) s0 C.Tick in
  let r2 = C.step h.cfgs.(0) s0 C.Tick in
  check "same input, same output" true (r1 = r2);
  check "input state untouched by stepping" true
    (s0.C.round = 0 && s0.C.replies = [] && Option.is_none s0.C.leader);
  let reply = C.Hb_reply { round = 0; ballot = Ballot.initial ~pid:1 (); qc = false } in
  let d1 = C.step h.cfgs.(0) s0 (C.Deliver { src = 1; msg = reply }) in
  let d2 = C.step h.cfgs.(0) s0 (C.Deliver { src = 1; msg = reply }) in
  check "deliver is a value too" true (d1 = d2);
  check "still no mutation" true (s0.C.replies = [])

let test_tick_outputs () =
  let h = make 3 in
  let s1, outs = C.step h.cfgs.(0) h.states.(0) C.Tick in
  check_int "round advanced" 1 s1.C.round;
  check "first tick only broadcasts requests" true
    (outs
    = [
        C.Send { dst = 1; msg = C.Hb_request { round = 1 } };
        C.Send { dst = 2; msg = C.Hb_request { round = 1 } };
      ])

let test_request_reply_echo () =
  let h = make 3 in
  let s = h.states.(0) in
  let _, outs =
    C.step h.cfgs.(0) s (C.Deliver { src = 2; msg = C.Hb_request { round = 7 } })
  in
  check "request echoed to its sender with our ballot and qc" true
    (outs
    = [
        C.Send
          { dst = 2; msg = C.Hb_reply { round = 7; ballot = s.C.ballot; qc = false } };
      ])

let test_reply_set_sorted_and_deduped () =
  let h = make 5 in
  let s = h.states.(0) in
  let reply src n =
    C.Deliver
      {
        src;
        msg = C.Hb_reply { round = 0; ballot = { Ballot.n; priority = 0; pid = src }; qc = true };
      }
  in
  let s = fst (C.step h.cfgs.(0) s (reply 3 1)) in
  let s = fst (C.step h.cfgs.(0) s (reply 1 1)) in
  let s = fst (C.step h.cfgs.(0) s (reply 4 1)) in
  let s = fst (C.step h.cfgs.(0) s (reply 1 9)) in
  check "descending by source, one entry per source" true
    (List.map fst s.C.replies = [ 4; 3; 1 ]);
  check "latest reply from a source wins" true
    (match List.assoc 1 s.C.replies with b, _ -> b.Ballot.n = 9);
  let s' = fst (C.step h.cfgs.(0) s (reply 2 1)) in
  check "stale-round replies are ignored" true
    (let stale =
       C.Deliver
         { src = 2; msg = C.Hb_reply { round = 5; ballot = Ballot.initial ~pid:2 (); qc = true } }
     in
     (fst (C.step h.cfgs.(0) s stale)).C.replies = s.C.replies
     && List.map fst s'.C.replies = [ 4; 3; 2; 1 ])

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
        match o with C.Elected { first; _ } -> Some first | C.Send _ | C.Ballot_bumped _ -> None)
      !(h.events)
  in
  check "three initial elections, all flagged first" true
    (List.length firsts = 3 && List.for_all Fun.id firsts)

let test_takeover_after_leader_death () =
  let h = make 3 in
  rounds h 3;
  h.events := [];
  isolate h 2;
  rounds h 4;
  check_int "survivor 0 follows the new leader" 1 (leader_pid h 0);
  check_int "survivor 1 leads" 1 (leader_pid h 1);
  let bumps =
    List.filter_map
      (fun (_, o) ->
        match o with C.Ballot_bumped b -> Some b | C.Send _ | C.Elected _ -> None)
      !(h.events)
  in
  check "takeover bumps ballots above the dead leader's" true
    (match bumps with [] -> false | _ :: _ -> List.for_all (fun b -> b.Ballot.n > 1) bumps)

let test_qc_signal_ablation () =
  (* Hand a node two non-QC replies at checkLeader time. With the QC signal
     only the node itself is a candidate, so it elects itself; with the
     ablation every reply is a candidate and the highest ballot (pid 2)
     wins. *)
  let run ~qc_signal =
    let h = make ~qc_signal 3 in
    let s = { (h.states.(0)) with C.round = 2 } in
    let reply src =
      C.Deliver
        {
          src;
          msg = C.Hb_reply { round = 2; ballot = Ballot.initial ~pid:src (); qc = false };
        }
    in
    let s = fst (C.step h.cfgs.(0) s (reply 1)) in
    let s = fst (C.step h.cfgs.(0) s (reply 2)) in
    let s, _ = C.step h.cfgs.(0) s C.Tick in
    match s.C.leader with Some b -> b.Ballot.pid | None -> -1
  in
  check_int "with QC signal: only self is a candidate" 0 (run ~qc_signal:true);
  check_int "ablated: every reply is a candidate" 2 (run ~qc_signal:false)

let test_connectivity_priority_stamp () =
  let h = make ~connectivity_priority:true 3 in
  let dead_leader = { Ballot.n = 5; priority = 0; pid = 9 } in
  let s = { (h.states.(0)) with C.round = 2; C.leader = Some dead_leader } in
  let s =
    fst
      (C.step h.cfgs.(0) s
         (C.Deliver
            {
              src = 1;
              msg = C.Hb_reply { round = 2; ballot = Ballot.initial ~pid:1 (); qc = true };
            }))
  in
  let _, outs = C.step h.cfgs.(0) s C.Tick in
  let bump =
    List.find_map
      (fun (o : C.output) ->
        match o with C.Ballot_bumped b -> Some b | C.Send _ | C.Elected _ -> None)
      outs
  in
  match bump with
  | None -> Alcotest.fail "expected a takeover bump"
  | Some b ->
      check "bumped above the dead leader" true (b.Ballot.n > dead_leader.Ballot.n);
      check_int "priority stamped with connectivity (self + 1 peer)" 2
        b.Ballot.priority

let test_msg_size () =
  check_int "request size" 12 (C.msg_size (C.Hb_request { round = 1 }));
  check_int "reply size" 29
    (C.msg_size (C.Hb_reply { round = 1; ballot = Ballot.initial ~pid:0 (); qc = true }))

let () =
  Alcotest.run "ble_core"
    [
      ( "pure core",
        [
          Alcotest.test_case "step is a value" `Quick test_step_is_a_value;
          Alcotest.test_case "tick outputs" `Quick test_tick_outputs;
          Alcotest.test_case "request/reply echo" `Quick test_request_reply_echo;
          Alcotest.test_case "reply set sorted+deduped" `Quick
            test_reply_set_sorted_and_deduped;
          Alcotest.test_case "initial election" `Quick test_initial_election;
          Alcotest.test_case "takeover after leader death" `Quick
            test_takeover_after_leader_death;
          Alcotest.test_case "qc-signal ablation" `Quick test_qc_signal_ablation;
          Alcotest.test_case "connectivity-priority stamp" `Quick
            test_connectivity_priority_stamp;
          Alcotest.test_case "msg sizes" `Quick test_msg_size;
        ] );
    ]
