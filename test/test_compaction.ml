(* The store ([Omnipaxos.Compaction.Store]) over the entry types of the
   three cores: applying a decided prefix in steps, trimming behind it, and
   shipping the snapshot to a fresh store yields exactly the state of
   folding the whole prefix at once, and after every step the store covers
   exactly the decided prefix. *)

module Store = Omnipaxos.Compaction.Store
module Command = Replog.Command
module Log = Replog.Log

(* Commands over a few keys; ids below zero are internal no-ops, which the
   state machine applies but the client-command count skips. *)
let command_gen =
  QCheck.Gen.(
    map3
      (fun id k which ->
        let key = "k" ^ string_of_int k in
        let op =
          match which with
          | 0 -> Command.Kv_put (key, string_of_int id)
          | 1 -> Command.Kv_get key
          | 2 -> Command.Kv_del key
          | _ -> Command.Noop
        in
        Command.make ~id op)
      (int_range (-1) 1000) (int_bound 4) (int_bound 3))

module type CASE = sig
  type t

  val name : string
  val gen : t QCheck.Gen.t

  val command : t -> Command.t option
  (** The oracle: the client command an entry carries. *)

  val apply : Store.t -> t Log.t -> upto:int -> unit
  (** [Store.apply] with the core's own entry function. *)
end

(* The fold of [entries] below [upto] into a fresh KV, and its client
   count. *)
let oracle (type e) (module C : CASE with type t = e) (entries : e list) upto =
  let kv = Replog.Kv.create () and cmds = ref 0 in
  List.iteri
    (fun i e ->
      match C.command e with
      | Some c when i < upto ->
          ignore (Replog.Kv.apply kv c);
          if c.Command.id >= 0 then incr cmds
      | Some _ | None -> ())
    entries;
  (Replog.Kv.snapshot kv, !cmds, upto)

(* Random entries, decided at the increasing points [cuts mod (n + 1)];
   each decide trims the log at the point before it. *)
let prop_round_trip (module C : CASE) =
  QCheck.Test.make ~count:200
    ~name:(C.name ^ ": stepwise compaction round-trips through a snapshot")
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 60) C.gen) (small_list nat)))
    (fun (entries, cuts) ->
      let n = List.length entries in
      let points = List.sort_uniq Int.compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let log = Log.of_list entries in
      let store = Store.create () in
      let covers upto = Store.key store = oracle (module C) entries upto in
      let _, stepwise =
        List.fold_left
          (fun (trim, ok) decided ->
            C.apply store log ~upto:decided;
            let applied = covers decided in
            Store.trim store log ~node:0 ~upto:trim ~taken:true;
            (decided, ok && applied && covers decided))
          (0, true) points
      in
      let last = List.fold_left max 0 points in
      Store.trim store log ~node:0 ~upto:last ~taken:true;
      let fresh = Store.create () and fresh_log = Log.create () in
      if last > 0 then (
        match Store.decode ~idx:last (Store.encode store ~idx:last) with
        | Ok r ->
            if not (Store.install fresh fresh_log ~node:1 r) then
              QCheck.Test.fail_report "install refused"
        | Error m -> QCheck.Test.fail_report m);
      stepwise
      && Log.first_idx log = last
      && Log.first_idx fresh_log = last
      && Store.key fresh = oracle (module C) entries last
      && Store.key store = Store.key fresh)

module Sp_case = struct
  type t = Omnipaxos.Entry.t

  let name = "sequence paxos"

  let gen =
    QCheck.Gen.(
      frequency
        [
          (9, map (fun c -> Omnipaxos.Entry.Cmd c) command_gen);
          ( 1,
            map
              (fun config_id ->
                Omnipaxos.Entry.Stop_sign
                  { config_id; nodes = [ 0; 1 ]; metadata = "" })
              small_nat );
        ])

  let command = function
    | Omnipaxos.Entry.Cmd c -> Some c
    | Omnipaxos.Entry.Stop_sign _ -> None

  let apply s log ~upto = Store.apply s log ~upto Omnipaxos.Entry.command ()
end

module Raft_case = struct
  type t = Raft.Node.entry

  let name = "raft"

  let gen =
    QCheck.Gen.(
      map2
        (fun term data -> { Raft.Node.term; data })
        small_nat
        (frequency
           [
             (9, map (fun c -> Raft.Node.Cmd c) command_gen);
             (1, return (Raft.Node.Config { config_id = 1; voters = [ 0; 1; 2 ] }));
           ]))

  let command (e : Raft.Node.entry) =
    match e.data with Cmd c -> Some c | Config _ -> None

  (* A Raft node applies Config entries to itself and hands the store
     nothing for them. *)
  let apply s log ~upto =
    Store.apply s log ~upto
      (fun () (e : t) ->
        match e.data with Cmd c -> c | Config _ -> Store.no_command)
      ()
end

module Multipaxos_case = struct
  type t = Command.t

  let name = "multi-paxos"
  let gen = command_gen
  let command c = Some c
  let apply s log ~upto = Store.apply s log ~upto (fun () c -> c) ()
end

(* Commands whose ids mostly run on consecutively (as a client numbers
   them), with jumps and internal ids, and every kind of op. *)
let run_commands_gen =
  QCheck.Gen.(
    map
      (fun steps ->
        let next = ref 0 in
        List.map
          (fun (step, which) ->
            let id =
              match step with
              | 0 -> -1
              | 1 ->
                  next := !next + 5;
                  !next
              | _ ->
                  incr next;
                  !next
            in
            let op =
              match which with
              | 0 -> Command.Kv_put ("k", string_of_int id)
              | 1 -> Command.Kv_get "k"
              | 2 -> Command.Kv_del "k"
              | 3 -> Command.Blob 100
              | _ -> Command.Noop
            in
            Command.make ~id op)
          steps)
      (list_size (int_range 1 80)
         (pair (frequency [ (1, return 0); (1, return 1); (8, return 2) ])
            (int_bound 7))))

(* A follower's log is the leader's batches kept as segments (some sent
   twice, overlapping): applying it in steps and trimming behind yields
   the fold's state and the client ids in order, one chunk at a time. *)
let prop_segments =
  QCheck.Test.make ~count:300
    ~name:"multi-paxos: stepwise apply over received segments"
    (QCheck.make
       QCheck.Gen.(
         triple run_commands_gen
           (list_size (int_range 1 30) (int_range 1 8))
           (small_list nat)))
    (fun (entries, batches, cuts) ->
      let n = List.length entries in
      let leader = Log.of_list entries and log = Log.create () in
      let rec send pos = function
        | len :: rest when pos < n ->
            let len = min len (n - pos) in
            (* Every third batch re-sends the one before it too. *)
            let back = if len mod 3 = 0 then min pos 2 else 0 in
            Log.append_slice log
              (Log.slice leader ~pos:(pos - back) ~len:(len + back))
              ~skip:back;
            send (pos + len) rest
        | _ -> if pos < n then send pos [ n - pos ]
      in
      send 0 batches;
      let points =
        List.sort_uniq Int.compare (List.map (fun c -> c mod (n + 1)) cuts)
      in
      let store = Store.create () in
      let ids upto =
        List.filteri (fun i _ -> i < upto) entries
        |> List.filter_map (fun (c : Command.t) ->
               if c.id >= 0 then Some c.id else None)
      in
      Log.to_list log = entries
      && snd
           (List.fold_left
              (fun (trim, ok) decided ->
                Multipaxos_case.apply store log ~upto:decided;
                let ok =
                  ok
                  && Store.key store = oracle (module Multipaxos_case) entries decided
                  && Omnipaxos.Decided_cache.ids_from (Store.ids store) ~from:0
                     = ids decided
                in
                Store.trim store log ~node:0 ~upto:trim ~taken:false;
                (decided, ok && Log.to_list log = List.filteri (fun i _ -> i >= trim) entries))
              (0, true) points))

(* Applying a batch of 1000 no-ops allocates nothing, from the own array
   (a leader's log) and from a kept segment (a follower's): the run state
   of the chunk loop lives in registers, and the ids, consecutive with the
   cache's last run, extend it. *)
let test_apply_noops_alloc_free () =
  let noops first = List.init 1000 (fun i -> Command.noop (first + i)) in
  let words log =
    let store = Store.create () in
    Multipaxos_case.apply store log ~upto:1000;
    let before = Gc.minor_words () in
    Multipaxos_case.apply store log ~upto:2000;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "applied" 2000 (Store.applied store);
    Alcotest.(check int) "counted" 2000 (Store.client_cmds store);
    words
  in
  let own = Log.of_list (noops 0 @ noops 1000) in
  let kept = Log.create () in
  Log.append_slice kept (Log.slice own ~pos:0 ~len:1000) ~skip:0;
  Log.append_slice kept (Log.slice own ~pos:1000 ~len:1000) ~skip:0;
  Alcotest.(check (float 0.)) "words applying 1000 no-ops from the own array"
    0. (words own);
  Alcotest.(check (float 0.)) "words applying 1000 no-ops from a segment" 0.
    (words kept)

(* A snapshot that fails to decode, or covers another prefix than the one
   it is shipped for, is reported and makes nothing to install. *)
let test_decode_rejects () =
  let store = Store.create () in
  let log = Log.of_list [ Command.noop 0; Command.noop 1 ] in
  Multipaxos_case.apply store log ~upto:2;
  Store.trim store log ~node:0 ~upto:2 ~taken:false;
  let envelope = Store.encode store ~idx:2 in
  let is_error = function Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "garbage" true (is_error (Store.decode ~idx:2 "garbage"));
  Alcotest.(check bool) "other prefix" true (is_error (Store.decode ~idx:3 envelope));
  Alcotest.(check bool) "matching prefix" false (is_error (Store.decode ~idx:2 envelope))

(* The store never rewinds: a snapshot at or below what it applied is
   refused and changes nothing, whichever protocol received it. *)
let test_install_never_rewinds () =
  let put i = Command.make ~id:i (Command.Kv_put ("k", string_of_int i)) in
  let log = Log.of_list (List.init 8 put) in
  let store = Store.create () in
  Multipaxos_case.apply store log ~upto:5;
  let received idx =
    match Store.decode ~idx (Store.encode store ~idx) with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let at_5 = received 5 in
  Multipaxos_case.apply store log ~upto:8;
  let key = Store.key store in
  let refused r =
    let installed = Store.install store log ~node:0 r in
    Alcotest.(check bool) "refused" false installed;
    Alcotest.(check bool) "state kept" true (Store.key store = key);
    Alcotest.(check int) "log kept" 8 (Log.length log);
    Alcotest.(check int) "log floor kept" 0 (Log.first_idx log);
    Alcotest.(check bool) "no install recorded" true
      (Store.last_install store = None)
  in
  refused at_5;
  refused (received 8);
  let ahead = Store.create () and ahead_log = Log.create () in
  Alcotest.(check bool) "a snapshot ahead installs" true
    (Store.install ahead ahead_log ~node:1 (received 8));
  Alcotest.(check bool) "and equals the sender" true (Store.key ahead = key)

let () =
  Alcotest.run "compaction"
    [
      ( "store",
        Alcotest.test_case "decode rejects bad input" `Quick test_decode_rejects
        :: Alcotest.test_case "install never rewinds" `Quick
             test_install_never_rewinds
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_round_trip (module Sp_case);
               prop_round_trip (module Raft_case);
               prop_round_trip (module Multipaxos_case);
               prop_segments;
             ]
        @ [
            Alcotest.test_case "apply of 1000 no-ops allocates nothing" `Quick
              test_apply_noops_alloc_free;
          ] );
    ]
