(* Handler-level unit tests for Sequence Paxos: the Prepare-phase log
   synchronisation matrix, late promises, positional Accept semantics,
   decide clamping, proposal buffering, and stop-sign behaviour. The
   transport is a hand-driven queue so orderings can be orchestrated
   precisely. *)

module Sp = Omnipaxos.Sequence_paxos
module Entry = Omnipaxos.Entry
module Ballot = Omnipaxos.Ballot
module Log = Replog.Log

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cmd i = Entry.Cmd (Replog.Command.noop i)
let ballot n pid = { Ballot.n; priority = 0; pid }

type harness = {
  nodes : Sp.t array;
  queues : (int * int * Sp.msg) Queue.t;
  blocked : (int * int, unit) Hashtbl.t;  (* links whose delivery is held *)
}

let make ?(n = 3) ?(prepare = fun _ _ -> ()) ?compaction () =
  let queues = Queue.create () in
  let blocked = Hashtbl.create 4 in
  let nodes =
    Array.init n (fun id ->
        let peers = List.filter (fun j -> j <> id) (List.init n Fun.id) in
        let persistent = Sp.fresh_persistent () in
        prepare id persistent;
        Sp.create ~id ~peers ~persistent ?compaction
          ~send:(fun ~dst m -> Queue.add (id, dst, m) queues)
          ())
  in
  { nodes; queues; blocked }

let deliver h =
  let made_progress = ref true in
  while !made_progress do
    made_progress := false;
    let pending = Queue.length h.queues in
    for _ = 1 to pending do
      let src, dst, m = Queue.pop h.queues in
      if Hashtbl.mem h.blocked (src, dst) then Queue.add (src, dst, m) h.queues
      else begin
        made_progress := true;
        Sp.handle h.nodes.(dst) ~src m
      end
    done
  done

let flush_all h =
  Array.iter Sp.flush h.nodes;
  deliver h

let ids_of node =
  List.filter_map
    (function
      | Entry.Cmd c -> Some c.Replog.Command.id
      | Entry.Stop_sign _ -> None)
    (Sp.read_decided node ~from:0)

(* ---------------- Prepare-phase synchronisation ---------------- *)

(* The new leader lags: a follower accepted entries in a higher round; the
   leader must adopt them before proposing (constrained-election case). *)
let test_leader_adopts_higher_round_log () =
  let prepare id (p : Sp.persistent) =
    if id = 1 then begin
      (* Follower 1 accepted [0;1;2] in round (1, pid 2) and decided 2. *)
      Log.append_list p.Sp.log [ cmd 0; cmd 1; cmd 2 ];
      p.Sp.prom_rnd <- ballot 1 2;
      p.Sp.acc_rnd <- ballot 1 2;
      p.Sp.decided_idx <- 2
    end
  in
  let h = make ~prepare () in
  Sp.handle_leader h.nodes.(0) (ballot 2 0);
  deliver h;
  check_int "leader adopted the 3 entries" 3 (Sp.log_length h.nodes.(0));
  check "leader in accept phase" true (Sp.role h.nodes.(0) = Sp.Leader_accept);
  (* The leader can now extend the adopted log. *)
  ignore (Sp.propose h.nodes.(0) (cmd 7));
  flush_all h;
  check "all decided the adopted log + extension" true
    (ids_of h.nodes.(0) = [ 0; 1; 2; 7 ] && ids_of h.nodes.(1) = [ 0; 1; 2; 7 ])

(* Same round, longer follower log: only the missing tail travels. *)
let test_same_round_longer_follower () =
  let prepare id (p : Sp.persistent) =
    let entries =
      if id = 1 then [ cmd 0; cmd 1; cmd 2; cmd 3 ] else [ cmd 0; cmd 1 ]
    in
    Log.append_list p.Sp.log entries;
    p.Sp.prom_rnd <- ballot 1 2;
    p.Sp.acc_rnd <- ballot 1 2;
    p.Sp.decided_idx <- 1
  in
  let h = make ~prepare () in
  Sp.handle_leader h.nodes.(0) (ballot 2 0);
  deliver h;
  check_int "leader extended to follower's length" 4
    (Sp.log_length h.nodes.(0));
  flush_all h;
  check "followers converge" true
    (Sp.log_length h.nodes.(1) = 4 && Sp.log_length h.nodes.(2) = 4)

(* A follower's non-chosen suffix from a dead round is overwritten by
   AcceptSync (Figure 3a's [4;5;6]). *)
let test_stale_suffix_overwritten () =
  let prepare id (p : Sp.persistent) =
    if id = 2 then begin
      (* Node 2 accepted garbage in an old round that never got chosen. *)
      Log.append_list p.Sp.log [ cmd 100; cmd 101; cmd 102 ];
      p.Sp.prom_rnd <- ballot 1 2;
      p.Sp.acc_rnd <- ballot 1 2
    end
  in
  let h = make ~prepare () in
  Sp.handle_leader h.nodes.(0) (ballot 2 0);
  deliver h;
  (* Majority promise = nodes 0,1,2; node 2's log wins the max key and is
     adopted — it was accepted, so it may be chosen. This test instead
     checks the reverse: node 2 must end up a prefix-consistent copy. *)
  ignore (Sp.propose h.nodes.(0) (cmd 7));
  flush_all h;
  let l0 = Sp.read_decided h.nodes.(0) ~from:0 in
  let l2 = Sp.read_decided h.nodes.(2) ~from:0 in
  check "node 2 log converged with the leader" true (l0 = l2)

(* ---------------- Accept phase ---------------- *)

let elect h =
  Sp.handle_leader h.nodes.(0) (ballot 1 0);
  deliver h

let test_pipeline_and_decide () =
  let h = make () in
  elect h;
  for i = 0 to 9 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  flush_all h;
  flush_all h;
  check "all nodes decided 10" true
    (Array.for_all (fun nd -> Sp.decided_idx nd = 10) h.nodes)

let test_proposals_buffered_during_prepare () =
  let h = make () in
  (* Block the promises so the leader stays in the Prepare phase. *)
  Hashtbl.replace h.blocked (1, 0) ();
  Hashtbl.replace h.blocked (2, 0) ();
  Sp.handle_leader h.nodes.(0) (ballot 1 0);
  deliver h;
  check "still preparing" true (Sp.role h.nodes.(0) = Sp.Leader_prepare);
  check "proposal accepted while preparing" true (Sp.propose h.nodes.(0) (cmd 1));
  check_int "not yet in the log" 0 (Sp.log_length h.nodes.(0));
  Hashtbl.reset h.blocked;
  deliver h;
  check_int "buffered proposal appended after the phase" 1
    (Sp.log_length h.nodes.(0));
  flush_all h;
  check_int "and decided" 1 (Sp.decided_idx h.nodes.(0))

let test_follower_rejects_gap () =
  let h = make () in
  elect h;
  (* Simulate a lost batch: deliver an Accept that starts beyond the
     follower's log. It must be ignored, not applied. *)
  Sp.handle h.nodes.(1) ~src:0
    (Sp.accept ~n:(ballot 1 0) ~start_idx:5
       ~entries:(Log.slice_of_list [ cmd 9 ])
       ~decided_idx:0);
  check_int "gap ignored" 0 (Sp.log_length h.nodes.(1))

let test_duplicate_accept_deduplicated () =
  let h = make () in
  elect h;
  let batch =
    Sp.accept ~n:(ballot 1 0) ~start_idx:0
      ~entries:(Log.slice_of_list [ cmd 0; cmd 1 ])
      ~decided_idx:0
  in
  Sp.handle h.nodes.(1) ~src:0 batch;
  Sp.handle h.nodes.(1) ~src:0 batch;
  check_int "idempotent redelivery" 2 (Sp.log_length h.nodes.(1))

let test_decide_clamped () =
  let h = make () in
  elect h;
  (* A Decide beyond the local log must clamp, not fail or overrun. *)
  Sp.handle h.nodes.(1) ~src:0 (Sp.Decide { n = ballot 1 0; decided_idx = 50 });
  check_int "clamped to log length" 0 (Sp.decided_idx h.nodes.(1))

let test_lower_round_messages_ignored () =
  let h = make () in
  elect h;
  ignore (Sp.propose h.nodes.(0) (cmd 0));
  flush_all h;
  (* An old leader from a lower round tries to interfere. *)
  Sp.handle h.nodes.(1) ~src:2
    (Sp.accept ~n:(ballot 0 2) ~start_idx:1
       ~entries:(Log.slice_of_list [ cmd 99 ])
       ~decided_idx:0);
  check_int "stale accept dropped" 1 (Sp.log_length h.nodes.(1));
  (* A Prepare from a lower round must not steal the promise. *)
  Sp.handle h.nodes.(1) ~src:2
    (Sp.Prepare { n = ballot 0 2; acc_rnd = Ballot.bottom; log_idx = 0; decided_idx = 0 });
  check "promise unchanged" true
    (Ballot.equal (Sp.current_round h.nodes.(1)) (ballot 1 0))

let test_late_promise_gets_accept_sync () =
  let h = make () in
  (* Node 2's promise is delayed past the Prepare phase. *)
  Hashtbl.replace h.blocked (2, 0) ();
  Sp.handle_leader h.nodes.(0) (ballot 1 0);
  deliver h;
  ignore (Sp.propose h.nodes.(0) (cmd 0));
  flush_all h;
  check_int "decided with the majority" 1 (Sp.decided_idx h.nodes.(0));
  check_int "straggler empty" 0 (Sp.log_length h.nodes.(2));
  Hashtbl.reset h.blocked;
  deliver h;
  flush_all h;
  check_int "straggler synchronised by AcceptSync" 1
    (Sp.log_length h.nodes.(2));
  check_int "and decided" 1 (Sp.decided_idx h.nodes.(2))

(* ---------------- stop sign ---------------- *)

let test_stop_sign_blocks_proposals () =
  let h = make () in
  elect h;
  ignore (Sp.propose h.nodes.(0) (cmd 0));
  check "stop sign accepted" true
    (Sp.propose h.nodes.(0)
       (Entry.Stop_sign { config_id = 1; nodes = [ 0; 1 ]; metadata = "" }));
  check "proposals after the stop sign are rejected" true
    (not (Sp.propose h.nodes.(0) (cmd 1)));
  check "stopped" true (Sp.is_stopped h.nodes.(0));
  check "ss not yet decided" true (Sp.stop_sign h.nodes.(0) = None);
  flush_all h;
  flush_all h;
  check "ss decided and visible" true (Sp.stop_sign h.nodes.(0) <> None);
  check "followers see it too" true (Sp.stop_sign h.nodes.(1) <> None)

(* ---------------- log compaction ---------------- *)

let test_trim_happy_path () =
  let h = make () in
  elect h;
  for i = 0 to 9 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  flush_all h;
  flush_all h;
  check "trim of a fully replicated prefix succeeds" true
    (Sp.request_trim h.nodes.(0) ~upto:5);
  deliver h;
  Array.iter
    (fun nd ->
      check_int "trim point everywhere" 5 (Log.first_idx (Sp.read_log nd)))
    h.nodes;
  (* Replication continues above the trim point. *)
  ignore (Sp.propose h.nodes.(0) (cmd 50));
  flush_all h;
  check_int "still decides" 11 (Sp.decided_idx h.nodes.(1))

(* The leader's own compaction trigger reaches the followers: it sends
   its Trim after the Decide that raises their decided index, so each
   synced follower trims where the leader did. Batches of 10 over an
   interval of 8 with [retain] 2 put every trim point above the decided
   index the followers knew before the Decide. *)
let test_followers_trim_with_leader () =
  List.iter
    (fun n ->
      let h = make ~n ~compaction:(Omnipaxos.Compaction.make ~retain:2 8) () in
      elect h;
      let leader = h.nodes.(0) in
      let trims = ref 0 in
      for round = 0 to 5 do
        let before = Sp.first_idx leader in
        for i = 0 to 9 do
          ignore (Sp.propose leader (cmd ((10 * round) + i)))
        done;
        flush_all h;
        if Sp.first_idx leader > before then incr trims;
        Array.iter
          (fun nd ->
            check_int
              (Printf.sprintf "n=%d round %d: node %d trims with the leader" n
                 round (Sp.id nd))
              (Sp.first_idx leader) (Sp.first_idx nd))
          h.nodes
      done;
      check (Printf.sprintf "n=%d: the leader trimmed every round" n) true
        (!trims = 6))
    [ 3; 5 ]

let test_trim_refused_when_peer_lags () =
  let h = make () in
  (* Node 2's traffic is blocked: it never acknowledges anything. *)
  Hashtbl.replace h.blocked (0, 2) ();
  Hashtbl.replace h.blocked (2, 0) ();
  elect h;
  for i = 0 to 4 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  flush_all h;
  flush_all h;
  check_int "majority decided" 5 (Sp.decided_idx h.nodes.(0));
  check "trim refused while a peer has not accepted" true
    (not (Sp.request_trim h.nodes.(0) ~upto:5))

let test_trim_refused_beyond_decided () =
  let h = make () in
  elect h;
  ignore (Sp.propose h.nodes.(0) (cmd 0));
  check "cannot trim undecided entries" true
    (not (Sp.request_trim h.nodes.(0) ~upto:1))

let test_election_after_trim () =
  let h = make () in
  elect h;
  for i = 0 to 9 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  flush_all h;
  flush_all h;
  ignore (Sp.request_trim h.nodes.(0) ~upto:10);
  deliver h;
  (* A new leader runs its Prepare phase over compacted logs. *)
  Sp.handle_leader h.nodes.(1) (ballot 2 1);
  deliver h;
  ignore (Sp.propose h.nodes.(1) (cmd 77));
  flush_all h;
  check_int "new round proposes above the trim point" 11
    (Sp.decided_idx h.nodes.(2))

(* Snapshot repair: a follower that lost its storage and sits below the
   leader's trim point is brought up to date with a state snapshot of the
   leader's decided prefix plus the log tail above it. *)
let test_snapshot_repairs_below_trim () =
  let queues = Queue.create () in
  let blocked = Hashtbl.create 4 in
  let snapshots = ref [] in
  let persistents = Array.init 3 (fun _ -> Sp.fresh_persistent ()) in
  let mk id persistent =
    let peers = List.filter (fun j -> j <> id) [ 0; 1; 2 ] in
    Sp.create ~id ~peers ~persistent
      ~send:(fun ~dst m -> Queue.add (id, dst, m) queues)
      ~on_snapshot:(fun idx payload -> snapshots := (id, idx, payload) :: !snapshots)
      ()
  in
  let nodes = Array.init 3 (fun id -> mk id persistents.(id)) in
  let h = { nodes; queues; blocked } in
  elect h;
  for i = 0 to 9 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  flush_all h;
  flush_all h;
  check "trim" true (Sp.request_trim h.nodes.(0) ~upto:8);
  deliver h;
  (* Node 2 loses its disk: fresh persistent state, rejoins via recovery. *)
  persistents.(2) <- Sp.fresh_persistent ();
  h.nodes.(2) <- mk 2 persistents.(2);
  Sp.recover h.nodes.(2);
  deliver h;
  flush_all h;
  let installed_at_10 p =
    match Replog.Snapshot.decode p with
    | Ok snap -> snap.Replog.Snapshot.last_idx = 10
    | Error _ -> false
  in
  check "snapshot of the decided prefix delivered to the wiped node" true
    (List.exists (fun (id, idx, p) -> id = 2 && idx = 10 && installed_at_10 p)
       !snapshots);
  check_int "log restarts at the leader's decided index" 10
    (Log.first_idx (Sp.read_log h.nodes.(2)));
  check_int "caught up via snapshot + tail" 10 (Sp.decided_idx h.nodes.(2));
  (* Replication to the repaired node continues normally. *)
  ignore (Sp.propose h.nodes.(0) (cmd 50));
  flush_all h;
  check_int "new entries flow" 11 (Sp.decided_idx h.nodes.(2));
  check "tail readable above the snapshot" true
    (List.length (Sp.read_decided h.nodes.(2) ~from:0) = 1)

(* The flush path's snapshot repair: a synced follower whose unsent backlog
   starts below the leader's trim point gets, from the next flush, an
   AcceptSync that ships the snapshot — its entries are gone. *)
let test_flush_repairs_below_trim () =
  let h = make ~compaction:(Omnipaxos.Compaction.make 4) () in
  elect h;
  let leader = h.nodes.(0) in
  for i = 0 to 9 do
    ignore (Sp.propose leader (cmd i))
  done;
  (* Before any flush, node 2's session drops: its re-sync carries all ten
     entries, so with node 2 the leader decides and trims all ten, none of
     which node 1 was sent. *)
  Sp.session_reset leader ~peer:2;
  deliver h;
  check_int "leader trimmed the decided log" 10 (Sp.first_idx leader);
  check_int "node 1 holds nothing" 0 (Sp.log_length h.nodes.(1));
  Sp.flush leader;
  check "the flush repairs node 1 with the snapshot" true
    (match Queue.peek_opt h.queues with
    | Some (0, 1, Sp.Accept_sync { sync_idx = 10; snapshot = Some (10, _); _ })
      ->
        Queue.length h.queues = 1
    | Some _ | None -> false);
  deliver h;
  check_int "node 1's log restarts at the trim point" 10
    (Sp.first_idx h.nodes.(1));
  check_int "node 1 decided through the snapshot" 10
    (Sp.decided_idx h.nodes.(1));
  ignore (Sp.propose leader (cmd 10));
  flush_all h;
  check_int "new entries flow to node 1" 11 (Sp.decided_idx h.nodes.(1))

(* A decided stop-sign survives a snapshot repair. The trim stops at the
   stop-sign, and a shipped snapshot is labelled at its index, so the
   suffix carries it. Both a wiped follower that is repaired by the
   leader's AcceptSync and a wiped server that becomes leader through the
   Promises must end up stopped and read the stop-sign. *)
let test_stop_sign_survives_snapshot () =
  let h = make () in
  elect h;
  let ss = { Entry.config_id = 1; nodes = [ 0; 1 ]; metadata = "" } in
  for i = 0 to 4 do
    ignore (Sp.propose h.nodes.(0) (cmd i))
  done;
  check "stop-sign proposed" true (Sp.propose h.nodes.(0) (Entry.Stop_sign ss));
  flush_all h;
  flush_all h;
  check_int "stop-sign decided" 6 (Sp.decided_idx h.nodes.(0));
  check "trim" true (Sp.request_trim h.nodes.(0) ~upto:6);
  deliver h;
  check_int "the trim stops at the stop-sign" 5 (Sp.first_idx h.nodes.(0));
  let wipe id =
    let peers = List.filter (fun j -> j <> id) [ 0; 1; 2 ] in
    h.nodes.(id) <-
      Sp.create ~id ~peers ~persistent:(Sp.fresh_persistent ())
        ~send:(fun ~dst m -> Queue.add (id, dst, m) h.queues)
        ()
  in
  let stopped what nd =
    check (what ^ ": stopped") true (Sp.is_stopped nd);
    check (what ^ ": reads the stop-sign") true (Sp.stop_sign nd = Some ss);
    check_int (what ^ ": decided") 6 (Sp.decided_idx nd);
    check_int (what ^ ": client commands")
      5 (Omnipaxos.Compaction.Store.client_cmds (Sp.store nd));
    check (what ^ ": refuses proposals") false (Sp.propose nd (cmd 9))
  in
  (* Node 2 loses its disk and is repaired by the leader. *)
  wipe 2;
  Sp.recover h.nodes.(2);
  deliver h;
  flush_all h;
  check_int "repaired below the trim point" 5 (Sp.first_idx h.nodes.(2));
  stopped "repaired follower" h.nodes.(2);
  (* Node 1 loses its disk and leads before anything repairs it. *)
  wipe 1;
  Sp.handle_leader h.nodes.(1) (ballot 2 1);
  deliver h;
  check "node 1 leads" true (Sp.role h.nodes.(1) = Sp.Leader_accept);
  stopped "lagging leader" h.nodes.(1);
  flush_all h;
  check_int "nothing decided after the stop-sign" 6 (Sp.decided_idx h.nodes.(0))

(* A follower of round (2, 0) holding [k] entries, all decided. *)
let decided_follower ?(send = fun ~dst:_ _ -> ()) ?on_snapshot k =
  let persistent = Sp.fresh_persistent () in
  Log.append_list persistent.Sp.log (List.init k cmd);
  persistent.Sp.prom_rnd <- ballot 2 0;
  persistent.Sp.acc_rnd <- ballot 2 0;
  persistent.Sp.decided_idx <- k;
  Sp.create ~id:1 ~peers:[ 0; 2 ] ~persistent ~send ?on_snapshot ()

(* A snapshot that does not decode drops its AcceptSync on receipt: no
   install, no ack, no state change. *)
let test_accept_sync_bad_snapshot_dropped () =
  let sent = ref 0 and installs = ref 0 in
  let sp =
    decided_follower 10
      ~send:(fun ~dst:_ _ -> incr sent)
      ~on_snapshot:(fun _ _ -> incr installs)
  in
  Sp.handle sp ~src:0
    (Sp.Accept_sync
       {
         n = ballot 2 0;
         sync_idx = 50;
         suffix = Log.slice_of_list [];
         decided_idx = 50;
         snapshot = Some (50, "garbage");
       });
  check_int "trim point unchanged" 0 (Sp.first_idx sp);
  check_int "decided index unchanged" 10 (Sp.decided_idx sp);
  check_int "log unchanged" 10 (Sp.log_length sp);
  check_int "no install" 0 !installs;
  check_int "no ack" 0 !sent

(* A snapshot at or below the follower's decided index is stale: its store
   already applied that prefix, so installing it would roll the state
   machine back. The suffix is spliced into the log instead. *)
let test_stale_snapshot_not_installed () =
  let installs = ref 0 in
  let sp = decided_follower 10 ~on_snapshot:(fun _ _ -> incr installs) in
  let before = Sp.snapshot sp in
  let kv = Replog.Kv.create () in
  for i = 0 to 4 do
    ignore (Replog.Kv.apply kv (Replog.Command.noop i))
  done;
  Sp.handle sp ~src:0
    (Sp.Accept_sync
       {
         n = ballot 2 0;
         sync_idx = 5;
         suffix = Log.slice_of_list (List.init 7 (fun i -> cmd (5 + i)));
         decided_idx = 5;
         snapshot =
           Some (5, Replog.Snapshot.encode ~last_idx:5 ~client_cmds:5 kv);
       });
  check_int "no install" 0 !installs;
  check_int "decided index kept" 10 (Sp.decided_idx sp);
  Alcotest.(check string) "store kept" before (Sp.snapshot sp);
  check_int "suffix spliced" 12 (Sp.log_length sp)

(* Likewise a Promise: it is not counted towards the Prepare quorum. *)
let test_promise_bad_snapshot_dropped () =
  let sent = ref 0 and installs = ref 0 in
  let sp =
    Sp.create ~id:0 ~peers:[ 1; 2 ] ~persistent:(Sp.fresh_persistent ())
      ~send:(fun ~dst:_ _ -> incr sent)
      ~on_snapshot:(fun _ _ -> incr installs)
      ()
  in
  Sp.handle_leader sp (ballot 2 0);
  let prepares = !sent in
  let promise snapshot =
    Sp.Promise
      {
        n = ballot 2 0;
        acc_rnd = ballot 1 1;
        log_idx = 50;
        decided_idx = 50;
        suffix_from = 50;
        suffix = Log.slice_of_list [];
        snapshot;
      }
  in
  Sp.handle sp ~src:1 (promise (Some (50, "garbage")));
  check "not counted: still preparing" true (Sp.role sp = Sp.Leader_prepare);
  check_int "no install" 0 !installs;
  check_int "nothing sent" prepares !sent;
  check_int "log unchanged" 0 (Sp.log_length sp);
  Sp.handle sp ~src:2
    (Sp.Promise
       {
         n = ballot 2 0;
         acc_rnd = Ballot.bottom;
         log_idx = 0;
         decided_idx = 0;
         suffix_from = 0;
         suffix = Log.slice_of_list [];
         snapshot = None;
       });
  check "a valid promise completes the quorum" true
    (Sp.role sp = Sp.Leader_accept)

let test_single_node_cluster () =
  let h = make ~n:1 () in
  Sp.handle_leader h.nodes.(0) (ballot 1 0);
  ignore (Sp.propose h.nodes.(0) (cmd 0));
  ignore (Sp.propose h.nodes.(0) (cmd 1));
  Sp.flush h.nodes.(0);
  check_int "single node decides alone" 2 (Sp.decided_idx h.nodes.(0))

(* Randomised end-to-end property at the handler level: any sequence of
   proposals with periodic flushes yields identical decided logs. *)
let prop_convergence =
  QCheck.Test.make ~name:"proposals converge to identical decided logs"
    ~count:100
    QCheck.(small_list (int_bound 100))
    (fun proposals ->
      let h = make () in
      elect h;
      List.iteri
        (fun i p ->
          ignore (Sp.propose h.nodes.(0) (cmd p));
          if i mod 3 = 0 then flush_all h)
        proposals;
      flush_all h;
      flush_all h;
      let l0 = ids_of h.nodes.(0) in
      List.length l0 = List.length proposals
      && ids_of h.nodes.(1) = l0
      && ids_of h.nodes.(2) = l0)

(* ---------------- leader fan-out ---------------- *)

(* An empty promise, as from a fresh follower. *)
let promise b =
  Sp.Promise
    {
      n = b;
      acc_rnd = Ballot.bottom;
      log_idx = 0;
      decided_idx = 0;
      suffix_from = 0;
      suffix = Log.slice_of_list [];
      snapshot = None;
    }

(* A leader (pid 0) over followers [1, n) that exist only as synthetic
   messages: every follower promises, so all of them are synced. *)
let make_leader ?(send = fun ~dst:_ _ -> ()) ?compaction n =
  let peers = List.init (n - 1) (fun i -> i + 1) in
  let sp =
    Sp.create ~id:0 ~peers ~persistent:(Sp.fresh_persistent ()) ?compaction
      ~send ()
  in
  let b = ballot 1 0 in
  Sp.handle_leader sp b;
  List.iter (fun p -> Sp.handle sp ~src:p (promise b)) peers;
  (sp, b)

(* The decidable index computed the way the leader used to: sort the
   leader's log length and every acknowledged index, take the quorum-th. *)
let reference_decidable ~quorum ~len acc =
  let values = len :: List.filter (fun v -> v >= 0) (Array.to_list acc) in
  if List.length values >= quorum then
    List.nth (List.sort (fun a b -> Int.compare b a) values) (quorum - 1)
  else 0

let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
  | [ _ ] | [] -> true

let propose_and_flush sp k =
  for i = 1 to k do
    ignore (Sp.propose sp (cmd i))
  done;
  Sp.flush sp

(* Random operations on a leader from [make_leader]: a width n in [1, 33]
   and (tag, a, x) triples with tags in [0, tags). [op_peer] picks the
   follower an operation involves. *)
let leader_ops ~tags =
  QCheck.(
    pair (int_range 1 33)
      (small_list (triple (int_bound (tags - 1)) small_nat small_nat)))

let op_peer ~n a = if n > 1 then 1 + (a mod (n - 1)) else 0

(* Tags 0-1: an Accepted (duplicates and lower re-acks included); 2: a
   Prepare_req; 3: a session reset; 4: a re-promise; 6: a higher round from
   the follower deposes the leader and overwrites its log from a random
   index; anything else (and every tag at n = 1): proposals and a flush. *)
let leader_op sp b ~n (tag, a, x) =
  let p = op_peer ~n a in
  match tag with
  | 0 | 1 when n > 1 ->
      Sp.handle sp ~src:p
        (Sp.Accepted { n = b; log_idx = x mod (Sp.log_length sp + 1) })
  | 2 when n > 1 -> Sp.handle sp ~src:p Sp.Prepare_req
  | 3 when n > 1 -> Sp.session_reset sp ~peer:p
  | 4 when n > 1 -> Sp.handle sp ~src:p (promise b)
  | 6 when n > 1 ->
      let b' = ballot ((Sp.current_round sp).Ballot.n + 1) p in
      let floor = Sp.first_idx sp and len = Sp.log_length sp in
      Sp.handle sp ~src:p
        (Sp.Prepare
           { n = b'; acc_rnd = Ballot.bottom; log_idx = 0; decided_idx = 0 });
      Sp.handle sp ~src:p
        (Sp.Accept_sync
           {
             n = b';
             sync_idx = floor + (x mod (len - floor + 1));
             suffix = Log.slice_of_list [ cmd (1000 + x) ];
             decided_idx = 0;
             snapshot = None;
           })
  | _ -> propose_and_flush sp (x mod 6)

(* Random Accepted (duplicates and lower re-acks included), Prepare_req,
   session resets, re-promises and proposals against a model of the
   follower set: the leader decides exactly what the sorted-list reference
   decides, Decides go to the synced followers in ascending pid order, and
   Accepts to a subset of them, also ascending. Compaction runs on every
   decide and trims up to the quorum-confirmed index, which at a decide is
   the decided index itself — so the trim point checks the compaction
   bound too. *)
let prop_decided_matches_reference =
  QCheck.Test.make ~name:"leader decided index matches the sorted reference"
    ~count:300
    (leader_ops ~tags:6)
    (fun (n, ops) ->
      let sent = ref [] in
      let sp, b =
        make_leader
          ~send:(fun ~dst m -> sent := (dst, m) :: !sent)
          ~compaction:(Omnipaxos.Compaction.make 1) n
      in
      let quorum = (n / 2) + 1 in
      let acc = Array.make n (-1) in
      let synced = Array.init n (fun p -> p > 0) in
      let decided = ref 0 in
      let synced_list () =
        List.filter (fun p -> synced.(p)) (List.init n Fun.id)
      in
      let recipients pick =
        List.rev
          (List.filter_map
             (fun (dst, m) -> if pick m then Some dst else None)
             !sent)
      in
      let is_decide = function Sp.Decide _ -> true | _ -> false in
      let is_accept = function Sp.Accept _ -> true | _ -> false in
      let step ((tag, a, x) as op) =
        sent := [];
        let len = Sp.log_length sp in
        let p = op_peer ~n a in
        let expect_decide = ref false in
        leader_op sp b ~n op;
        (match tag with
        | 0 | 1 when n > 1 ->
            acc.(p) <- max (max 0 acc.(p)) (x mod (len + 1));
            let d = reference_decidable ~quorum ~len acc in
            if d > !decided then begin
              decided := d;
              expect_decide := true
            end
        | 2 | 3 when n > 1 ->
            acc.(p) <- -1;
            synced.(p) <- false
        | 4 when n > 1 -> synced.(p) <- true
        | _ -> if quorum = 1 then decided := Sp.log_length sp);
        let decides = recipients is_decide in
        let accepts = recipients is_accept in
        Sp.decided_idx sp = !decided
        && Sp.first_idx sp = !decided
        && decides = (if !expect_decide then synced_list () else [])
        && strictly_ascending accepts
        && List.for_all (fun p -> synced.(p)) accepts
      in
      propose_and_flush sp 16;
      if quorum = 1 then decided := Sp.log_length sp;
      List.for_all step ops)

(* Entries of every size class: no-ops, blobs, KV puts and stop-signs. *)
let entry_gen =
  QCheck.Gen.(
    map2
      (fun tag x ->
        match tag with
        | 0 -> cmd x
        | 1 -> Entry.Cmd (Replog.Command.make ~id:x (Replog.Command.Blob x))
        | 2 ->
            let k = String.make (x mod 7) 'k' and v = String.make x 'v' in
            Entry.Cmd (Replog.Command.make ~id:x (Replog.Command.Kv_put (k, v)))
        | _ ->
            Entry.Stop_sign
              {
                config_id = x;
                nodes = List.init (x mod 5) Fun.id;
                metadata = String.make x 'm';
              })
      (int_bound 3) (int_bound 100))

let sum_sizes entries =
  List.fold_left (fun acc e -> acc + Entry.size e) 0 entries

(* An Accept carries its size, summed once when it is built: for a
   hand-built Accept and for every Accept a leader's flushes hand out,
   [msg_size] is 41 plus the sizes of the entries it carries. *)
let prop_accept_size =
  QCheck.Test.make ~name:"an Accept's size is 41 plus its entries' sizes"
    ~count:300
    QCheck.(
      pair (int_range 1 9)
        (small_list (pair (make entry_gen) (int_bound 3))))
    (fun (n, items) ->
      let hand_built =
        let entries = List.map fst items in
        Sp.msg_size
          (Sp.accept ~n:(ballot 1 0) ~start_idx:0
             ~entries:(Log.slice_of_list entries) ~decided_idx:0)
        = 41 + sum_sizes entries
      in
      let sent = ref [] in
      let sp, _ = make_leader n ~send:(fun ~dst:_ m -> sent := m :: !sent) in
      (* Commands only (nothing follows a stop-sign), flushed every time
         the second component is 0. *)
      List.iter
        (fun (e, flush) ->
          (match e with
          | Entry.Cmd _ -> ignore (Sp.propose sp e)
          | Entry.Stop_sign _ -> ());
          if flush = 0 then Sp.flush sp)
        items;
      Sp.flush sp;
      hand_built
      && List.for_all
           (function
             | Sp.Accept a as m ->
                 Sp.msg_size m
                 = 41 + sum_sizes (Log.slice_to_list a.Sp.entries)
             | _ -> true)
           !sent)

(* [copy] is deep and [state_key] sees every field: after random
   operations, a copy has the original's key, and one more operation on the
   copy leaves the original's key unchanged (a copy sharing [acc_idx],
   [promises], the persistent record or the log's array fails the second
   part). *)
let prop_copy_is_deep =
  QCheck.Test.make ~name:"copy is deep and keyed like the original" ~count:300
    (leader_ops ~tags:7)
    (fun (n, ops) ->
      match List.rev ops with
      | [] -> true
      | last :: earlier ->
          let sp, b =
            make_leader ~compaction:(Omnipaxos.Compaction.make 1) n
          in
          propose_and_flush sp 16;
          List.iter (leader_op sp b ~n) (List.rev earlier);
          let key = Sp.state_key sp in
          let c = Sp.copy sp in
          String.equal (Sp.state_key c) key
          && begin
               leader_op c b ~n last;
               String.equal (Sp.state_key sp) key
             end)

let steady_leader n ~entries =
  let sp, b = make_leader n in
  for i = 1 to entries do
    ignore (Sp.propose sp (cmd i))
  done;
  Sp.flush sp;
  for p = 1 to n - 1 do
    Sp.handle sp ~src:p (Sp.Accepted { n = b; log_idx = entries })
  done;
  (sp, b)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* An Accepted that moves nothing past the decided index allocates the same
   (nothing) whatever the cluster width: no per-follower list, sort or
   closure on the leader's ack path. *)
let test_accepted_alloc_flat () =
  let cost n =
    let sp, b = steady_leader n ~entries:8 in
    check_int "steady state decided" 8 (Sp.decided_idx sp);
    let acks =
      Array.init 1000 (fun i ->
          (1 + (i mod (n - 1)), Sp.Accepted { n = b; log_idx = 8 - (i mod 3) }))
    in
    let words =
      minor_words (fun () ->
          Array.iter (fun (src, m) -> Sp.handle sp ~src m) acks)
    in
    check_int "nothing new decided" 8 (Sp.decided_idx sp);
    words
  in
  Alcotest.(check (float 0.)) "1000 acks cost the same words at n=5 and n=33"
    (cost 5) (cost 33)

(* A flush to every follower builds one slice and one Accept: the extra
   words of 32 followers over 4 do not grow with the batch size. *)
let test_flush_shares_batch () =
  let flush_words n ~batch =
    let sp, _ = steady_leader n ~entries:8 in
    for i = 1 to batch do
      ignore (Sp.propose sp (cmd (100 + i)))
    done;
    minor_words (fun () -> Sp.flush sp)
  in
  let extra batch = flush_words 33 ~batch -. flush_words 5 ~batch in
  Alcotest.(check (float 0.)) "n=33 minus n=5 independent of the batch"
    (extra 1) (extra 50)

(* A flush takes an O(1) slice of the log: at n=5 a batch of 1000 entries
   costs the words of a batch of 1. *)
let test_flush_alloc_flat () =
  let flush_words ~batch =
    let sp, _ = steady_leader 5 ~entries:8 in
    for i = 1 to batch do
      ignore (Sp.propose sp (cmd (100 + i)))
    done;
    minor_words (fun () -> Sp.flush sp)
  in
  Alcotest.(check (float 0.)) "a flush of 1 and of 1000 entries at n=5"
    (flush_words ~batch:1) (flush_words ~batch:1000)

(* A follower appends an Accept's slice with one blit: the words it
   allocates do not grow with the entries it carries. *)
let test_follower_accept_alloc_flat () =
  let cost k =
    let sp = decided_follower 0 in
    (* Room for the batch up front: growing the log is not the handler's
       cost. *)
    let log = Sp.read_log sp in
    Log.append_list log (List.init k cmd);
    Log.truncate log 0;
    let accept =
      Sp.accept ~n:(ballot 2 0) ~start_idx:0
        ~entries:(Log.slice_of_list (List.init k cmd))
        ~decided_idx:0
    in
    let words = minor_words (fun () -> Sp.handle sp ~src:0 accept) in
    check_int "appended" k (Sp.log_length sp);
    words
  in
  Alcotest.(check (float 0.)) "an Accept of 1 and of 1000 entries"
    (cost 1) (cost 1000)

(* A follower keeps an Accept's slice as a segment of its log, whatever
   the cluster's width: an Accept of 1 entry, one of 1000, and one whose
   entries it already holds (which appends nothing) allocate the same
   words, at n=5 and at n=33. *)
let test_follower_accept_keeps_segment () =
  let cost n ~k ~held =
    let persistent = Sp.fresh_persistent () in
    persistent.Sp.prom_rnd <- ballot 2 0;
    persistent.Sp.acc_rnd <- ballot 2 0;
    let peers = 0 :: List.init (n - 2) (fun i -> i + 2) in
    let sp =
      Sp.create ~id:1 ~peers ~persistent ~send:(fun ~dst:_ _ -> ()) ()
    in
    (* Room in the segment table up front: growing it is not the
       handler's cost. *)
    let log = Sp.read_log sp in
    for _ = 1 to 16 do
      Log.append_slice log (Log.slice_of_list [ cmd 0 ]) ~skip:0
    done;
    Log.truncate log 0;
    let entries = Log.slice_of_list (List.init k cmd) in
    if held then Log.append_slice log entries ~skip:0;
    let accept =
      Sp.accept ~n:(ballot 2 0) ~start_idx:0 ~entries ~decided_idx:0
    in
    let words = minor_words (fun () -> Sp.handle sp ~src:0 accept) in
    check_int "holds the batch" k (Sp.log_length sp);
    words
  in
  List.iter
    (fun n ->
      let base = cost n ~k:1 ~held:true in
      List.iter
        (fun (k, held) ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "n=%d: an Accept of %d entries%s" n k
               (if held then " already held" else ""))
            base (cost n ~k ~held))
        [ (1, false); (1000, false); (1000, true) ])
    [ 5; 33 ]

(* A follower checks only the last entry an Accept appends for a stop-sign
   (the leader proposes nothing after one): a stop-sign that ends a
   multi-entry batch is marked, and a batch without one leaves the
   follower running. *)
let test_stop_sign_ends_accept_batch () =
  let sp = decided_follower 2 in
  let ss = Entry.Stop_sign { config_id = 1; nodes = [ 0; 1 ]; metadata = "" } in
  let accept start_idx entries =
    Sp.handle sp ~src:0
      (Sp.accept ~n:(ballot 2 0) ~start_idx
         ~entries:(Log.slice_of_list entries) ~decided_idx:2)
  in
  accept 1 [ cmd 1; cmd 2 ];
  check "a batch of commands stops nothing" false (Sp.is_stopped sp);
  accept 2 [ cmd 2; cmd 3; cmd 4; ss ];
  check_int "appended past the overlap" 6 (Sp.log_length sp);
  check "stopped" true (Sp.is_stopped sp);
  check "not decided yet" true (Option.is_none (Sp.stop_sign sp));
  Sp.handle sp ~src:0 (Sp.Decide { n = ballot 2 0; decided_idx = 6 });
  check "the decided stop-sign is read at its index" true
    (Option.is_some (Sp.stop_sign sp))

(* Three Omni-Paxos replicas behind [Rsm.Omni_adapter], wired through a
   queue, until replica 0 is elected; [deliver ~hold] then hands every
   queued message over except those [hold] keeps, which it returns. *)
module A = Rsm.Omni_adapter

let adapter_cluster () =
  let q = Queue.create () in
  let nodes =
    Array.init 3 (fun id ->
        A.create ~id
          ~peers:(List.filter (fun p -> p <> id) [ 0; 1; 2 ])
          ~election_ticks:2 ~rand:(Random.State.make [| id |])
          ~send:(fun ~dst m -> Queue.add (id, dst, m) q)
          ())
  in
  let deliver ~hold =
    let held = Queue.create () in
    while not (Queue.is_empty q) do
      let ((src, dst, m) as x) = Queue.pop q in
      if hold ~dst m then Queue.add x held else A.handle nodes.(dst) ~src m
    done;
    held
  in
  let rounds = ref 0 in
  while (not (A.is_leader nodes.(0))) && !rounds < 1000 do
    (* Only replica 0 ticks, so it is the one whose ballot rises. *)
    A.tick nodes.(0);
    ignore (deliver ~hold:(fun ~dst:_ _ -> false));
    incr rounds
  done;
  check "replica 0 elected" true (A.is_leader nodes.(0));
  (nodes, deliver)

let is_decide = function
  | Omnipaxos.Replica.Sp_msg (Sp.Decide _) -> true
  | Omnipaxos.Replica.Sp_msg _ | Omnipaxos.Replica.Ble_msg _ -> false

(* A follower's Decide, through the adapter, applies the newly decided
   entries to its store (KV, count, id cache) with one first-order loop
   over the log: once the id cache holds a run the ids extend, it allocates
   nothing. *)
let test_adapter_decide_alloc_free () =
  let nodes, deliver = adapter_cluster () in
  let decide_batch first k =
    for i = first to first + k - 1 do
      ignore (A.propose nodes.(0) (Replog.Command.noop i))
    done;
    A.tick nodes.(0);
    deliver ~hold:(fun ~dst m -> dst = 1 && is_decide m)
  in
  (* The first batch opens the cache's run of ids at replica 1. *)
  let first = decide_batch 0 10 in
  Queue.iter (fun (src, dst, m) -> A.handle nodes.(dst) ~src m) first;
  let before = A.decided_count nodes.(1) in
  let held = decide_batch 10 50 in
  check_int "replica 1 has one Decide to apply" 1 (Queue.length held);
  let src, _, decide = Queue.pop held in
  let follower = nodes.(1) in
  let words =
    minor_words (fun () -> A.handle follower ~src decide)
    -. minor_words (fun () -> ())
  in
  check_int "50 more ids decided" (before + 50) (A.decided_count follower);
  Alcotest.(check (float 0.)) "words a follower's Decide allocates" 0. words

(* Proposals a 1-in-10 sampler drops allocate what untraced ones do: the
   site asks [Trace.on_kind] before it builds the [Proposed] event. *)
let sampled_out_propose_words ~traced =
  let sp, _ = make_leader 3 in
  let words = ref 0. in
  let go () =
    (* The first proposal's event is kept; the next 9 are dropped. *)
    ignore (Sp.propose sp (cmd 0));
    words :=
      minor_words (fun () ->
          for i = 1 to 9 do
            ignore (Sp.propose sp (cmd i))
          done)
  in
  if traced then begin
    let kept = ref 0 in
    Obs.Trace.set_sampling (Some (Obs.Sampling.create ~head:0 ~rate:10 ()));
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_sampling None)
      (fun () ->
        Obs.Trace.with_sink
          ~make_sink:(fun () _ -> incr kept)
          ~close:ignore go);
    check_int "1 proposal in 10 traced" 1 !kept
  end
  else go ();
  check_int "all appended" 10 (Sp.log_length sp);
  !words

let test_sampled_out_propose_alloc () =
  Alcotest.(check (float 0.)) "sampled-out proposes allocate as untraced"
    (sampled_out_propose_words ~traced:false)
    (sampled_out_propose_words ~traced:true)

(* The model checker interns messages by [msg_key]: a slice of a long log
   keys like a list of the same entries. *)
let test_msg_key_by_content () =
  let log = Log.of_list (List.init 100 cmd) in
  let accept entries =
    Sp.msg_key
      (Sp.accept ~n:(ballot 1 0) ~start_idx:3 ~entries ~decided_idx:0)
  in
  check "a log's slice and a list of its entries" true
    (String.equal
       (accept (Log.slice log ~pos:3 ~len:2))
       (accept (Log.slice_of_list [ cmd 3; cmd 4 ])));
  check "other entries, another key" false
    (String.equal
       (accept (Log.slice log ~pos:3 ~len:2))
       (accept (Log.slice_of_list [ cmd 3; cmd 5 ])))

(* The words a follower allocates applying a Trim of its whole decided
   k-entry log (the log's fresh array is then empty). *)
let trim_words k =
  let sp = decided_follower k in
  let trim = Sp.Trim { n = ballot 2 0; trim_idx = k } in
  let words = minor_words (fun () -> Sp.handle sp ~src:0 trim) in
  check_int "trimmed" k (Sp.first_idx sp);
  words

(* A follower's Trim only cuts its log: the words it allocates do not grow
   with the number of entries trimmed. *)
let test_trim_alloc_flat () =
  Alcotest.(check (float 0.)) "a Trim of 100 and of 10,000 entries"
    (trim_words 100) (trim_words 10_000)

(* Nor does it read an entry or build a closure: it allocates nothing. *)
let test_trim_fold_alloc_free () =
  Alcotest.(check (float 0.)) "a Trim of 1 entry" 0. (trim_words 1);
  Alcotest.(check (float 0.)) "a Trim of 1000 entries" 0. (trim_words 1000)

(* A follower applies each entry once, when the Decide reaches it: its
   store then holds the decided prefix (client count and KV), and a Trim of
   that prefix only cuts the log, applying nothing. *)
let test_decide_applies_trim_cuts () =
  let k = 1000 in
  let put i =
    Replog.Command.make ~id:i
      (Replog.Command.Kv_put ("k" ^ string_of_int (i mod 7), string_of_int i))
  in
  let persistent = Sp.fresh_persistent () in
  Log.append_list persistent.Sp.log (List.init k (fun i -> Entry.Cmd (put i)));
  persistent.Sp.prom_rnd <- ballot 2 0;
  persistent.Sp.acc_rnd <- ballot 2 0;
  let sp =
    Sp.create ~id:1 ~peers:[ 0; 2 ] ~persistent ~send:(fun ~dst:_ _ -> ()) ()
  in
  let client_cmds () =
    Omnipaxos.Compaction.Store.client_cmds persistent.Sp.store
  in
  let kv = Replog.Kv.create () in
  for i = 0 to k - 1 do
    ignore (Replog.Kv.apply kv (put i))
  done;
  Sp.handle sp ~src:0 (Sp.Decide { n = ballot 2 0; decided_idx = k });
  check_int "decided" k (Sp.decided_idx sp);
  check_int "client count of the decided prefix" k (client_cmds ());
  Alcotest.(check string)
    "the store is the KV of the decided prefix"
    (Replog.Snapshot.encode ~last_idx:k ~client_cmds:k kv)
    (Sp.snapshot sp);
  let before = Sp.snapshot sp in
  Sp.handle sp ~src:0 (Sp.Trim { n = ballot 2 0; trim_idx = k });
  check_int "trimmed" k (Sp.first_idx sp);
  check_int "the Trim counted nothing" k (client_cmds ());
  Alcotest.(check string)
    "the Trim applied nothing (KV, Kv.applied, count)" before (Sp.snapshot sp)

(* Pids outside [0, 1 + max (id :: peers)) are not members: their messages
   and session resets are dropped instead of indexing the follower arrays. *)
let test_out_of_range_pid_dropped () =
  let sent = ref 0 in
  let sp, b = make_leader ~send:(fun ~dst:_ _ -> incr sent) 3 in
  ignore (Sp.propose sp (cmd 0));
  Sp.flush sp;
  let before = !sent in
  List.iter
    (fun src ->
      Sp.handle sp ~src (Sp.Accepted { n = b; log_idx = 1 });
      Sp.handle sp ~src Sp.Prepare_req;
      Sp.session_reset sp ~peer:src)
    [ 3; 7; -1 ];
  check_int "non-members decide nothing" 0 (Sp.decided_idx sp);
  check_int "and trigger no sends" before !sent;
  Sp.handle sp ~src:2 (Sp.Accepted { n = b; log_idx = 1 });
  check_int "a member's ack still decides" 1 (Sp.decided_idx sp)

(* Members [0; 1; 3] leave a gap at pid 2, which is inside the follower
   arrays but is not a member: its Promise completes no Prepare and its
   Accepted decides nothing. *)
let test_gap_pid_never_counts () =
  let sp =
    Sp.create ~id:0 ~peers:[ 1; 3 ] ~persistent:(Sp.fresh_persistent ())
      ~send:(fun ~dst:_ _ -> ())
      ()
  in
  let b = ballot 1 0 in
  Sp.handle_leader sp b;
  Sp.handle sp ~src:2 (promise b);
  check "a gap pid's Promise completes no Prepare" true
    (Sp.role sp = Sp.Leader_prepare);
  Sp.handle sp ~src:1 (promise b);
  check "a member's Promise does" true (Sp.role sp = Sp.Leader_accept);
  ignore (Sp.propose sp (cmd 0));
  Sp.flush sp;
  Sp.handle sp ~src:2 (Sp.Accepted { n = b; log_idx = 1 });
  check_int "a gap pid's Accepted decides nothing" 0 (Sp.decided_idx sp);
  Sp.handle sp ~src:3 (Sp.Accepted { n = b; log_idx = 1 });
  check_int "a member's Accepted decides" 1 (Sp.decided_idx sp)

let () =
  Alcotest.run "sequence_paxos"
    [
      ( "prepare",
        [
          Alcotest.test_case "adopts higher-round log" `Quick
            test_leader_adopts_higher_round_log;
          Alcotest.test_case "same round, longer follower" `Quick
            test_same_round_longer_follower;
          Alcotest.test_case "stale suffix overwritten" `Quick
            test_stale_suffix_overwritten;
          Alcotest.test_case "proposals buffered" `Quick
            test_proposals_buffered_during_prepare;
        ] );
      ( "accept",
        [
          Alcotest.test_case "pipeline and decide" `Quick
            test_pipeline_and_decide;
          Alcotest.test_case "gap rejected" `Quick test_follower_rejects_gap;
          Alcotest.test_case "duplicate dedup" `Quick
            test_duplicate_accept_deduplicated;
          Alcotest.test_case "decide clamped" `Quick test_decide_clamped;
          Alcotest.test_case "lower round ignored" `Quick
            test_lower_round_messages_ignored;
          Alcotest.test_case "late promise" `Quick
            test_late_promise_gets_accept_sync;
          Alcotest.test_case "adapter Decide allocates nothing" `Quick
            test_adapter_decide_alloc_free;
        ] );
      ( "stop-sign",
        [
          Alcotest.test_case "blocks proposals" `Quick
            test_stop_sign_blocks_proposals;
          Alcotest.test_case "single node" `Quick test_single_node_cluster;
          Alcotest.test_case "ends an Accept batch" `Quick
            test_stop_sign_ends_accept_batch;
        ] );
      ( "trim",
        [
          Alcotest.test_case "happy path" `Quick test_trim_happy_path;
          Alcotest.test_case "refused when a peer lags" `Quick
            test_trim_refused_when_peer_lags;
          Alcotest.test_case "refused beyond decided" `Quick
            test_trim_refused_beyond_decided;
          Alcotest.test_case "election after trim" `Quick
            test_election_after_trim;
          Alcotest.test_case "snapshot repairs below trim" `Quick
            test_snapshot_repairs_below_trim;
          Alcotest.test_case "flush repairs below trim" `Quick
            test_flush_repairs_below_trim;
          Alcotest.test_case "undecodable AcceptSync snapshot dropped" `Quick
            test_accept_sync_bad_snapshot_dropped;
          Alcotest.test_case "stop-sign survives a snapshot repair" `Quick
            test_stop_sign_survives_snapshot;
          Alcotest.test_case "stale snapshot not installed" `Quick
            test_stale_snapshot_not_installed;
          Alcotest.test_case "undecodable Promise snapshot dropped" `Quick
            test_promise_bad_snapshot_dropped;
          Alcotest.test_case "trim allocation flat in k" `Quick
            test_trim_alloc_flat;
          Alcotest.test_case "followers trim with the leader" `Quick
            test_followers_trim_with_leader;
          Alcotest.test_case "a Decide applies, a Trim only cuts" `Quick
            test_decide_applies_trim_cuts;
          Alcotest.test_case "follower Trim allocates nothing in the fold"
            `Quick test_trim_fold_alloc_free;
        ] );
      ( "fan-out",
        [
          Alcotest.test_case "out-of-range pid dropped" `Quick
            test_out_of_range_pid_dropped;
          Alcotest.test_case "a gap pid never counts" `Quick
            test_gap_pid_never_counts;
          Alcotest.test_case "accepted allocation flat in n" `Quick
            test_accepted_alloc_flat;
          Alcotest.test_case "flush shares one batch" `Quick
            test_flush_shares_batch;
          Alcotest.test_case "flush allocation flat in the batch" `Quick
            test_flush_alloc_flat;
          Alcotest.test_case "follower accept allocation flat in k" `Quick
            test_follower_accept_alloc_flat;
          Alcotest.test_case "follower accept keeps a segment" `Quick
            test_follower_accept_keeps_segment;
          Alcotest.test_case "msg_key keys by content" `Quick
            test_msg_key_by_content;
          Alcotest.test_case "sampled-out proposes allocate as untraced"
            `Quick test_sampled_out_propose_alloc;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_convergence;
          QCheck_alcotest.to_alcotest prop_decided_matches_reference;
          QCheck_alcotest.to_alcotest prop_copy_is_deep;
          QCheck_alcotest.to_alcotest prop_accept_size;
        ] );
    ]
