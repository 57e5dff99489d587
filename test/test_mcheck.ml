(* Bounded model checking of the Sequence Paxos that runs: exhaustively
   explore all message interleavings — including drops, competing leaders,
   compaction and a session reset — of three real instances and assert that
   no reachable state violates SC1-SC3 or the application check. The
   self-tests feed real instances forged messages and require each check to
   catch the violation it exists for. *)

module Sp = Omnipaxos.Sequence_paxos
module Explore = Mcheck.Explore

let check = Alcotest.(check bool)

let exhaustive name (cfg : Explore.config) () =
  let r = Explore.run cfg in
  (match r.violation with
  | Some v -> Alcotest.failf "%s: %s (after %d states)" name v r.states
  | None -> ());
  check (name ^ ": explored a nontrivial space") true (r.states > 100);
  check (name ^ ": space exhausted (not truncated)") true (not r.truncated);
  if cfg.session_resets <> [] then
    check (name ^ ": reaches a snapshot install") true (r.installs > 0)

(* ---------------- self-tests ---------------- *)

let b1 = Explore.ballot 1 0

let forged_cfg =
  {
    Explore.leader_events = [];
    proposals = [ (0, 11); (0, 22) ];
    session_resets = [];
    allow_drops = false;
    max_states = 1;
  }

let prepare =
  Sp.Prepare
    { n = b1; acc_rnd = Omnipaxos.Ballot.bottom; log_idx = 0; decided_idx = 0 }

let accept_sync ?snapshot ?(sync_idx = 0) ?(decided_idx = 0) suffix =
  Sp.Accept_sync
    {
      n = b1;
      sync_idx;
      suffix = Replog.Log.slice_of_list suffix;
      decided_idx;
      snapshot;
    }

let decide = Sp.Decide { n = b1; decided_idx = 1 }

(* Node [dst] promises [b1] and accepts [suffix] from a leader that never
   ran. *)
let sync dst ?snapshot ?sync_idx ?decided_idx suffix =
  [
    Explore.Forge (0, dst, prepare);
    Explore.Forge (0, dst, accept_sync ?snapshot ?sync_idx ?decided_idx suffix);
  ]

(* The first violation of [script], run from the initial world with every
   check after every step. *)
let replay cfg script =
  let ex, w0 = Explore.make cfg in
  let rec go w = function
    | [] -> None
    | step :: rest -> (
        let ((w', _) as next) = Explore.apply ex w step in
        match Explore.check ex ~before:w next with
        | Some _ as v -> v
        | None -> go w' rest)
  in
  go w0 script

let expect_violation ~prefix script =
  match replay forged_cfg script with
  | None -> Alcotest.failf "no violation reported; expected %s" prefix
  | Some v ->
      if not (String.starts_with ~prefix v) then
        Alcotest.failf "expected a %s violation, got: %s" prefix v

(* Two followers decide different entries at index 0. *)
let test_sc2_divergence () =
  expect_violation ~prefix:"SC2"
    (sync 1 [ Explore.command 11 ]
    @ [ Explore.Forge (0, 1, decide) ]
    @ sync 2 [ Explore.command 22 ]
    @ [ Explore.Forge (0, 2, decide) ])

(* A follower accepts an entry id nobody proposed. *)
let test_sc1_unproposed () =
  expect_violation ~prefix:"SC1" (sync 1 [ Explore.command 99 ])

(* Node 1 decides 11 at index 0; node 2 then installs a snapshot that
   claims to cover index 0 but holds the empty state, so its KV state sits
   below its decided index. *)
let test_app_rollback () =
  let empty =
    Replog.Snapshot.encode ~last_idx:1 ~client_cmds:0 (Replog.Kv.create ())
  in
  expect_violation ~prefix:"app"
    (sync 1 [ Explore.command 11 ]
    @ [ Explore.Forge (0, 1, decide) ]
    @ sync 2 ~snapshot:(1, empty) ~sync_idx:1 ~decided_idx:1 [])

let () =
  Alcotest.run "mcheck"
    [
      ( "exhaustive",
        List.map
          (fun (name, cfg) ->
            Alcotest.test_case name `Quick (exhaustive name cfg))
          Explore.default_configs );
      ( "self-test",
        [
          Alcotest.test_case "SC2 catches diverging decides" `Quick
            test_sc2_divergence;
          Alcotest.test_case "SC1 catches an unproposed entry" `Quick
            test_sc1_unproposed;
          Alcotest.test_case "app catches a KV rollback" `Quick
            test_app_rollback;
        ] );
    ]
