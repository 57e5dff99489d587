(* Exhaustive model checking with message drops enabled — the largest
   instances of the bounded exploration of the real Sequence Paxos. The
   competing-leaders case (two proposals, ~1M states) is too slow for the
   default test suite; both sit behind the [slow] dune alias (run with
   [dune build @slow]). The space must be *exhausted* (non-truncated), so
   the "no violation" verdict covers every reachable interleaving including
   drops, not just a truncated prefix. *)

let check = Alcotest.(check bool)

let b1 = Mcheck.Explore.ballot 1 0
let b2 = Mcheck.Explore.ballot 2 1

let exhaustive name (cfg : Mcheck.Explore.config) =
  let r = Mcheck.Explore.run cfg in
  (match r.violation with
  | Some v -> Alcotest.failf "%s: %s (after %d states)" name v r.states
  | None -> ());
  check (name ^ ": nontrivial space") true (r.states > 1_000);
  check (name ^ ": space exhausted (not truncated)") true (not r.truncated)

let test_single_leader_drops_exhaustive () =
  exhaustive "single leader, two proposals, drops"
    {
      leader_events = [ (0, b1) ];
      proposals = [ (0, 11); (0, 22) ];
      session_resets = [];
      allow_drops = true;
      max_states = 50_000_000;
    }

let test_competing_leaders_drops_exhaustive () =
  exhaustive "competing leaders, one proposal each, drops"
    {
      leader_events = [ (0, b1); (1, b2) ];
      proposals = [ (0, 11); (1, 22) ];
      session_resets = [];
      allow_drops = true;
      max_states = 50_000_000;
    }

let () =
  Alcotest.run "mcheck-slow"
    [
      ( "exhaustive-with-drops",
        [
          Alcotest.test_case "single leader, drops, exhausted" `Slow
            test_single_leader_drops_exhaustive;
          Alcotest.test_case "competing leaders, drops, exhausted" `Slow
            test_competing_leaders_drops_exhaustive;
        ] );
    ]
