(* The chaos harness's own tests: the linearizability checker against
   hand-built histories (both legal and illegal), determinism of schedule
   generation and of whole traced episodes, campaign reproducibility, and
   the acceptance check that a deliberately injected stale-read bug is
   caught and shrunk to a minimal fault schedule. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Ck = Chaos.Checker

let op ?(client = 0) ?(key = "k") ~id ~kind ~invoke ?return ?result () =
  {
    Ck.o_id = id;
    o_client = client;
    o_key = key;
    o_kind = kind;
    o_invoke = invoke;
    o_return = return;
    o_result = result;
  }

(* ---------------- checker ---------------- *)

let test_sequential_ok () =
  let ops =
    [
      op ~id:0 ~kind:(Ck.Put "a") ~invoke:0.0 ~return:1.0 ();
      op ~id:1 ~kind:Ck.Get ~invoke:2.0 ~return:3.0 ~result:(Some "a") ();
      op ~id:2 ~kind:Ck.Del ~invoke:4.0 ~return:5.0 ();
      op ~id:3 ~kind:Ck.Get ~invoke:6.0 ~return:7.0 ~result:None ();
    ]
  in
  check "sequential put/get/del/get" true (Ck.linearizable ops)

let test_stale_read_detected () =
  let ops =
    [
      op ~id:0 ~kind:(Ck.Put "a") ~invoke:0.0 ~return:1.0 ();
      op ~id:1 ~kind:(Ck.Put "b") ~invoke:2.0 ~return:3.0 ();
      (* The read starts after put b returned, yet observes the old value. *)
      op ~id:2 ~kind:Ck.Get ~invoke:4.0 ~return:5.0 ~result:(Some "a") ();
    ]
  in
  check "stale read is a violation" false (Ck.linearizable ops)

let test_concurrent_read_both_ways () =
  let slow_put = op ~id:0 ~kind:(Ck.Put "b") ~invoke:0.0 ~return:10.0 () in
  let saw_new =
    [ slow_put; op ~id:1 ~kind:Ck.Get ~invoke:2.0 ~return:3.0 ~result:(Some "b") () ]
  in
  let saw_old =
    [ slow_put; op ~id:1 ~kind:Ck.Get ~invoke:2.0 ~return:3.0 ~result:None () ]
  in
  check "read overlapping a put may see the new value" true
    (Ck.linearizable saw_new);
  check "read overlapping a put may see the old value" true
    (Ck.linearizable saw_old)

let test_pending_write_semantics () =
  let pending_put = op ~id:0 ~kind:(Ck.Put "b") ~invoke:0.0 () in
  (* A timed-out write may take effect at any later point... *)
  check "pending write may materialise" true
    (Ck.linearizable
       [
         pending_put;
         op ~id:1 ~kind:Ck.Get ~invoke:5.0 ~return:6.0 ~result:None ();
         op ~id:2 ~kind:Ck.Get ~invoke:7.0 ~return:8.0 ~result:(Some "b") ();
       ]);
  (* ...or never. *)
  check "pending write may never materialise" true
    (Ck.linearizable
       [
         pending_put;
         op ~id:1 ~kind:Ck.Get ~invoke:5.0 ~return:6.0 ~result:None ();
       ]);
  (* But it cannot un-happen: once observed, later reads must still see it
     (nothing else writes the key here). *)
  check "write cannot be observed and then undone" false
    (Ck.linearizable
       [
         pending_put;
         op ~id:1 ~kind:Ck.Get ~invoke:5.0 ~return:6.0 ~result:(Some "b") ();
         op ~id:2 ~kind:Ck.Get ~invoke:7.0 ~return:8.0 ~result:None ();
       ])

let test_per_key_partitioning_and_minimality () =
  let ops =
    [
      (* Key "good": a perfectly fine pair. *)
      op ~key:"good" ~id:0 ~kind:(Ck.Put "x") ~invoke:0.0 ~return:1.0 ();
      op ~key:"good" ~id:1 ~kind:Ck.Get ~invoke:2.0 ~return:3.0
        ~result:(Some "x") ();
      (* Key "bad": reads a value nobody ever wrote. *)
      op ~key:"bad" ~id:2 ~kind:(Ck.Put "y") ~invoke:0.0 ~return:1.0 ();
      op ~key:"bad" ~id:3 ~kind:Ck.Get ~invoke:2.0 ~return:3.0
        ~result:(Some "zzz") ();
    ]
  in
  let r = Ck.check_ops ops in
  check_int "two keys checked" 2 r.Ck.r_keys;
  check "not truncated" false r.Ck.r_truncated;
  match r.Ck.r_violation with
  | None -> Alcotest.fail "expected a violation on key bad"
  | Some v ->
      Alcotest.(check string) "violation on the right key" "bad" v.Ck.v_key;
      (* 1-minimal: the bogus read alone already violates (the put can be
         dropped: the read still returns a never-written value). *)
      check_int "minimal subhistory is a single op" 1 (List.length v.Ck.v_ops)

let test_truncation_is_not_violation () =
  (* Many concurrent pending writes blow up the search; with a tiny budget
     the checker must report truncation, not a verdict. *)
  let ops =
    List.init 12 (fun i ->
        op ~id:i ~kind:(Ck.Put (string_of_int i)) ~invoke:0.0 ())
    @ [ op ~id:99 ~kind:Ck.Get ~invoke:1.0 ~return:2.0 ~result:(Some "11") () ]
  in
  let r = Ck.check_ops ~max_states:3 ops in
  check "truncated" true r.Ck.r_truncated;
  check "no violation claimed" true (r.Ck.r_violation = None)

(* ---------------- determinism ---------------- *)

let test_schedule_determinism () =
  let mk () =
    Chaos.Nemesis.random_schedule
      ~rng:(Random.State.make [| 7; 42 |])
      ~n:5 ~length:32
  in
  check "same seed, same schedule" true (mk () = mk ());
  let other =
    Chaos.Nemesis.random_schedule
      ~rng:(Random.State.make [| 8; 42 |])
      ~n:5 ~length:32
  in
  check "different seed, different schedule" true (mk () <> other)

module Omni_campaign = Chaos.Campaign.Make (Rsm.Omni_adapter)

(* Satellite regression: simulated-network event ordering is deterministic.
   Two traced runs of the same seeded episode must produce the exact same
   obs event sequence (kinds, nodes and timestamps). *)
let test_traced_episode_determinism () =
  let cfg = { Chaos.Campaign.default_config with steps = 8 } in
  let schedule = Omni_campaign.schedule_of_seed cfg ~seed:11 in
  let record () =
    let _, recording =
      Obs.Trace.with_recording (fun () ->
          Omni_campaign.run_schedule cfg ~seed:11 ~schedule)
    in
    List.map Obs.Tracebin.to_json recording.Obs.Trace.events
  in
  let a = record () and b = record () in
  check_int "same number of events" (List.length a) (List.length b);
  check "nontrivial trace" true (List.length a > 100);
  List.iter2 (Alcotest.(check string) "identical event sequence") a b

let test_campaign_reproducible () =
  let cfg = { Chaos.Campaign.default_config with steps = 8 } in
  let show () =
    Format.asprintf "%a" Chaos.Campaign.pp_summary
      (Omni_campaign.run cfg ~seed:42 ~episodes:5)
  in
  Alcotest.(check string) "two runs, identical summary" (show ()) (show ())

(* Decided-prefix monotonicity must hold across snapshot installs: a node
   repaired with a snapshot jumps its decided index forward, never back.
   Record a compaction-heavy episode (crash + recover forces the install
   path) and run every trace invariant over it. *)
let test_invariants_across_install () =
  let cfg =
    {
      Chaos.Campaign.default_config with
      steps = 8;
      compaction = Omnipaxos.Compaction.make ~retain:4 16;
    }
  in
  let schedule =
    Chaos.Nemesis.
      [ Crash 2; Heal_all; Heal_all; Heal_all; Heal_all; Recover 2 ]
  in
  let _, recording =
    Obs.Trace.with_recording (fun () ->
        Omni_campaign.run_schedule cfg ~seed:13 ~schedule)
  in
  let events = recording.Obs.Trace.events in
  let installs =
    List.length
      (List.filter
         (fun (e : Obs.Event.t) ->
           match e.Obs.Event.kind with
           | Obs.Event.Snapshot_installed _ -> true
           | _ [@lint.allow "D4"] -> false)
         events)
  in
  check "the episode exercised a snapshot install" true (installs > 0);
  List.iter
    (fun (name, r) ->
      check ("invariant " ^ name) true
        (match r with
        | Ok () -> true
        | Error v ->
            Format.eprintf "%s: %a@." name Obs.Invariant.pp_violation v;
            false))
    (Obs.Invariant.check_all events)

(* Regression: a retransmitted (stale) snapshot install must not roll the
   application state machine back. Both seeds below once produced a
   single-op stale-read violation: a leader that answered two promises
   from the same session-reset shipped the same snapshot twice, and the
   second install landed after entries above its boundary had already
   been decided (VR / Sequence Paxos), or a leader whose next-index was
   rewound by a session reset re-shipped a snapshot whose tail the
   follower had committed in the meantime (Raft PV+CQ). *)
let test_stale_install_not_reapplied () =
  List.iter
    (fun (name, seed, steps) ->
      match List.assoc_opt name Chaos.Campaign.protocols with
      | None -> Alcotest.failf "protocol %s not registered" name
      | Some protocol ->
          let cfg =
            {
              Chaos.Campaign.default_config with
              steps;
              compaction = Omnipaxos.Compaction.make ~retain:4 16;
            }
          in
          let s = Chaos.Campaign.run protocol cfg ~seed ~episodes:1 in
          check (name ^ ": no stale-read violation") true
            (s.Chaos.Campaign.s_failures = []))
    [ ("vr", 3000, 24); ("raft-pvcq", 2056, 12) ]

(* ---------------- campaigns on the real protocols ---------------- *)

let test_correct_protocols_clean () =
  List.iter
    (fun (name, protocol) ->
      if name <> "faulty-raft" then begin
        let s =
          Chaos.Campaign.run protocol Chaos.Campaign.default_config ~seed:7
            ~episodes:5
        in
        check (name ^ ": no violations") true (s.Chaos.Campaign.s_failures = []);
        check
          (name ^ ": clients made progress")
          true
          (s.Chaos.Campaign.s_completed > 0)
      end)
    Chaos.Campaign.protocols

(* ---------------- the injected bug ---------------- *)

let test_faulty_adapter_caught_and_shrunk () =
  let faulty =
    match List.assoc_opt "faulty-raft" Chaos.Campaign.protocols with
    | Some p -> p
    | None -> Alcotest.fail "faulty-raft protocol missing"
  in
  let cfg = Chaos.Campaign.default_config in
  let s = Chaos.Campaign.run faulty cfg ~seed:42 ~episodes:10 in
  match s.Chaos.Campaign.s_failures with
  | [] -> Alcotest.fail "stale-read bug not caught in 10 episodes"
  | f :: _ ->
      let open Chaos.Campaign in
      check "minimal schedule is non-empty" true (f.f_minimal <> []);
      check "minimal no longer than the original" true
        (List.length f.f_minimal <= List.length f.f_schedule);
      (* Replaying the minimal schedule still fails... *)
      let replay schedule =
        (Chaos.Campaign.replay faulty cfg ~seed:f.f_seed ~schedule).ep_check
          .Ck.r_violation
      in
      check "minimal schedule reproduces the violation" true
        (replay f.f_minimal <> None);
      (* ...and it is 1-minimal: dropping any single opcode makes it pass. *)
      List.iteri
        (fun i _ ->
          let without =
            List.filteri (fun j _ -> j <> i) f.f_minimal
          in
          check
            (Printf.sprintf "dropping opcode %d makes it pass" i)
            true
            (replay without = None))
        f.f_minimal

let () =
  Alcotest.run "chaos"
    [
      ( "checker",
        [
          Alcotest.test_case "sequential history" `Quick test_sequential_ok;
          Alcotest.test_case "stale read detected" `Quick
            test_stale_read_detected;
          Alcotest.test_case "concurrent read, both outcomes" `Quick
            test_concurrent_read_both_ways;
          Alcotest.test_case "pending write semantics" `Quick
            test_pending_write_semantics;
          Alcotest.test_case "per-key partitioning and 1-minimality" `Quick
            test_per_key_partitioning_and_minimality;
          Alcotest.test_case "truncation is not a violation" `Quick
            test_truncation_is_not_violation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "schedules from seeds" `Quick
            test_schedule_determinism;
          Alcotest.test_case "traced episode event sequence" `Quick
            test_traced_episode_determinism;
          Alcotest.test_case "campaign summary reproducible" `Quick
            test_campaign_reproducible;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "invariants hold across snapshot install" `Quick
            test_invariants_across_install;
          Alcotest.test_case "stale snapshot installs are not re-applied"
            `Quick test_stale_install_not_reapplied;
          Alcotest.test_case "correct protocols stay clean" `Quick
            test_correct_protocols_clean;
          Alcotest.test_case "injected stale-read bug caught and shrunk"
            `Quick test_faulty_adapter_caught_and_shrunk;
        ] );
    ]
