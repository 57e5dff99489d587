(* A fake in-memory core as a plain [Rsm.Protocol.PROTOCOL] module, built
   from the [Protocol] helpers every adapter uses, whose decided prefix is
   applied by a real store ([Omnipaxos.Compaction.Store]): the test appends
   decided commands to the core's log and moves its decided index, as a
   core does, then checks through the protocol interface the decided-id
   cache, the store's never-rewind rule, the install record and the
   profiler frames. The frames of every real adapter are checked on a short
   cluster run. *)

module Store = Omnipaxos.Compaction.Store
module Log = Replog.Log

module Fake = struct
  type t = {
    log : Replog.Command.t Log.t;
    store : Store.t;
    mutable decided : int;
  }

  type msg = unit

  let name = "Fake"

  let create ?batching:_ ?compaction:_ ~id:_ ~peers:_ ~election_ticks:_
      ~rand:_ ~send:_ () =
    { log = Log.create (); store = Store.create (); decided = 0 }

  let handle, tick =
    Rsm.Protocol.framed ~layer:"fake"
      (fun (_ : t) ~src:(_ : int) () -> ())
      (fun (_ : t) -> ())

  let session_reset _ ~peer:_ = ()
  let restart _ = ()
  let propose _ _ = false
  let is_leader _ = false
  let leader_pid _ = None
  let decided_count c = Rsm.Protocol.decided_count c.store
  let decided_ids c ~from = Rsm.Protocol.decided_ids c.store ~from
  let decided_index c = c.decided
  let last_install c = Rsm.Protocol.last_install c.store
  let msg_size () = 0

  (* Announce the decided index [upto] to the store, as a core does on
     every advance; a recovering core re-announces lower indexes. The store
     reads the log in place, so reading a position the install replaced
     raises. *)
  let announce c upto = Store.apply c.store c.log ~upto (fun _ cmd -> cmd) ()

  (* Append commands with [ids] at the end of the log and decide them;
     negative ids are protocol-internal. *)
  let decide c ids =
    List.iter (fun id -> Log.append c.log (Replog.Command.noop id)) ids;
    c.decided <- Log.length c.log;
    announce c c.decided

  (* A leader-shipped snapshot of [0, idx) replaces everything below [idx];
     returns its envelope. *)
  let install c idx =
    let envelope =
      Replog.Snapshot.encode ~last_idx:idx ~client_cmds:idx (Replog.Kv.create ())
    in
    (match Store.decode ~idx envelope with
    | Ok r ->
        Alcotest.(check bool) "installed" true (Store.install c.store c.log ~node:0 r)
    | Error m -> Alcotest.fail m);
    c.decided <- idx;
    announce c idx;
    envelope
end

(* The fake seen only through the interface the harness uses. *)
module A : Rsm.Protocol.PROTOCOL with type t = Fake.t and type msg = unit =
  Fake

let create () =
  A.create ~id:0 ~peers:[ 1; 2 ] ~election_ticks:10
    ~rand:(Random.State.make [| 1 |])
    ~send:(fun ~dst:_ () -> ())
    ()

let ids = Alcotest.(list int)

let test_reannounce_no_duplicates () =
  let c = create () in
  Fake.decide c [ 10; 11; -1; 12 ];
  Alcotest.check ids "internal entries skipped" [ 10; 11; 12 ]
    (A.decided_ids c ~from:0);
  (* Offsets at or past the end are empty, also past the cache's initial
     capacity of 64. *)
  List.iter
    (fun from ->
      Alcotest.check ids "from past the end" [] (A.decided_ids c ~from))
    [ 3; 64; 65 ];
  (* A recovering core re-announces lower decided indexes. *)
  Fake.announce c 2;
  Fake.announce c 4;
  Fake.decide c [ 13 ];
  Alcotest.check ids "no duplicates" [ 10; 11; 12; 13 ]
    (A.decided_ids c ~from:0);
  Alcotest.(check int) "count" 4 (A.decided_count c);
  Alcotest.(check int) "applied once" 5 (Store.applied c.Fake.store);
  Alcotest.(check int) "decided index" 5 (A.decided_index c)

let test_install () =
  let c = create () in
  Fake.decide c [ 1; 2 ];
  Alcotest.(check bool) "no install yet" true (A.last_install c = None);
  let snap_a = Fake.install c 10 in
  (match A.last_install c with
  | Some i ->
      Alcotest.(check int) "inst_seq" 1 i.Rsm.Protocol.inst_seq;
      Alcotest.(check int) "inst_cache_len = count at install" 2
        i.Rsm.Protocol.inst_cache_len;
      Alcotest.(check string) "payload" snap_a i.Rsm.Protocol.inst_payload
  | None -> Alcotest.fail "install not recorded");
  (* [applied] jumped to 10: deciding on top reads only the new entries. *)
  Fake.decide c [ 7; 8 ];
  Alcotest.check ids "ids after the install" [ 7; 8 ]
    (A.decided_ids c ~from:2);
  Alcotest.check ids "all ids" [ 1; 2; 7; 8 ] (A.decided_ids c ~from:0);
  let (_ : string) = Fake.install c 20 in
  match A.last_install c with
  | Some i ->
      Alcotest.(check int) "second inst_seq" 2 i.Rsm.Protocol.inst_seq;
      Alcotest.(check int) "second inst_cache_len" 4
        i.Rsm.Protocol.inst_cache_len
  | None -> Alcotest.fail "second install not recorded"

let test_profile_frames () =
  let c = create () in
  let (), p =
    Obs.Profile.with_profile (fun () ->
        A.handle c ~src:1 ();
        A.tick c;
        A.tick c)
  in
  let calls label =
    match
      List.find_opt
        (fun r -> String.equal r.Obs.Profile.r_label label)
        (Obs.Profile.flat p)
    with
    | Some r -> r.Obs.Profile.r_calls
    | None -> 0
  in
  Alcotest.(check int) "fake/handle frames" 1 (calls "fake/handle");
  Alcotest.(check int) "fake/tick frames" 2 (calls "fake/tick")

(* The profiler layer of every evaluated protocol, by [--protocol] key; the
   variants frame under their base's layer. *)
let layers =
  [
    ("omni", "omnipaxos");
    ("raft", "raft");
    ("raft-pvcq", "raft");
    ("multipaxos", "multipaxos");
    ("vr", "vr");
  ]

(* A short cluster run of each protocol under the profiler opens
   ["<layer>/handle"] and ["<layer>/tick"] frames, and no other protocol's
   frames. *)
let test_protocol_frames () =
  Alcotest.(check (list string))
    "one layer per table entry"
    (List.map fst Rsm.Protocols.table)
    (List.map fst layers);
  let check_frames what layer (module P : Rsm.Protocol.PROTOCOL) =
    let module C = Rsm.Cluster.Make (P) in
    let (), p =
      Obs.Profile.with_profile (fun () ->
          C.run_ms (C.create Rsm.Cluster.default_config) 500.0)
    in
    let labels op =
      List.filter_map
        (fun r ->
          let l = r.Obs.Profile.r_label in
          if String.ends_with ~suffix:("/" ^ op) l && r.Obs.Profile.r_calls > 0
          then Some l
          else None)
        (Obs.Profile.flat p)
    in
    List.iter
      (fun op ->
        Alcotest.(check (list string))
          (what ^ " " ^ op ^ " frames")
          [ layer ^ "/" ^ op ] (labels op))
      [ "handle"; "tick" ]
  in
  List.iter
    (fun (key, p) -> check_frames key (List.assoc key layers) p)
    Rsm.Protocols.table;
  check_frames "no-qc-signal" "omnipaxos" (module Rsm.Omni_adapter.No_qc_signal)

module Cache = Omnipaxos.Decided_cache

(* Id sequences made of consecutive runs, gaps, repeats and descending
   steps, from random starts. *)
let ids_gen =
  QCheck.Gen.(
    map List.concat
      (list_size (int_bound 20)
         (map3
            (fun start len step -> List.init len (fun i -> start + (step * i)))
            (int_bound 50) (int_bound 8)
            (oneofl [ 1; 1; 2; 0; -1 ]))))

(* The run-length cache answers every query like the list of ids it was
   fed. *)
let prop_cache_matches_list =
  QCheck.Test.make ~name:"decided cache matches the list model" ~count:500
    (QCheck.make
       ~print:(fun ids -> String.concat ";" (List.map string_of_int ids))
       ids_gen)
    (fun ids ->
      let c = Cache.create () in
      List.iter (Cache.note c) ids;
      let count = List.length ids in
      Cache.count c = count
      && List.for_all
           (fun from ->
             Cache.ids_from c ~from = List.filteri (fun i _ -> i >= from) ids)
           (List.init (count + 3) (fun i -> i - 1)))

(* Consecutive ids extend one run: a million of them fit in a few words. *)
let test_cache_runs () =
  let c = Cache.create () in
  for id = 0 to 999_999 do
    Cache.note c id
  done;
  Alcotest.(check int) "count" 1_000_000 (Cache.count c);
  Alcotest.(check bool) "under 100 words" true
    (Obj.reachable_words (Obj.repr c) < 100);
  Alcotest.check ids "the last two" [ 999_998; 999_999 ]
    (Cache.ids_from c ~from:999_998)

let () =
  Alcotest.run "adapter"
    [
      ( "adapter",
        [
          Alcotest.test_case "re-announced lower index adds no duplicates"
            `Quick test_reannounce_no_duplicates;
          Alcotest.test_case "install jumps the cursor and is recorded" `Quick
            test_install;
          Alcotest.test_case "profiler frames per layer" `Quick
            test_profile_frames;
          Alcotest.test_case "profiler frames of every protocol" `Quick
            test_protocol_frames;
          Alcotest.test_case "decided cache: a million consecutive ids" `Quick
            test_cache_runs;
          QCheck_alcotest.to_alcotest prop_cache_matches_list;
        ] );
    ]
