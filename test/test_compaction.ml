(* The compacted-prefix store ([Omnipaxos.Compaction.Store]) over the entry
   types of the three cores: compacting in steps then shipping the snapshot
   to a fresh store yields exactly the state of folding the whole prefix
   at once. *)

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
  include Store.ENTRY

  val name : string
  val gen : t QCheck.Gen.t
  val command : t -> Command.t option
end

(* Random entries, compacted at the increasing points [cuts mod (n + 1)]. *)
let prop_round_trip (module C : CASE) =
  let module Fold = Store.Fold (C) in
  QCheck.Test.make ~count:200
    ~name:(C.name ^ ": stepwise compaction round-trips through a snapshot")
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 60) C.gen) (small_list nat)))
    (fun (entries, cuts) ->
      let n = List.length entries in
      let points = List.sort_uniq Int.compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let log = Log.of_list entries in
      let store = Store.create () in
      List.iter (fun upto -> Fold.compact store log ~node:0 ~upto ~taken:true) points;
      let last = List.fold_left max 0 points in
      let kv = Replog.Kv.create () and cmds = ref 0 in
      List.iteri
        (fun i e ->
          match C.command e with
          | Some c when i < last ->
              ignore (Replog.Kv.apply kv c);
              if c.Command.id >= 0 then incr cmds
          | Some _ | None -> ())
        entries;
      let fresh = Store.create () and fresh_log = Log.create () in
      (match Store.decode ~idx:last (Store.encode store log) with
      | Ok r -> Store.install fresh fresh_log ~node:1 r
      | Error m -> QCheck.Test.fail_report m);
      Log.first_idx log = last
      && Log.first_idx fresh_log = last
      && Store.key fresh = (Replog.Kv.snapshot kv, !cmds)
      && Store.key store = Store.key fresh)

module Sp_case = struct
  include Omnipaxos.Entry

  let name = "sequence paxos"

  let gen =
    QCheck.Gen.(
      frequency
        [
          (9, map (fun c -> Cmd c) command_gen);
          ( 1,
            map
              (fun config_id -> Stop_sign { config_id; nodes = [ 0; 1 ]; metadata = "" })
              small_nat );
        ])

  let command = function Cmd c -> Some c | Stop_sign _ -> None
end

module Raft_case = struct
  include Raft.Node.Entry

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
end

module Multipaxos_case = struct
  type t = Command.t

  let iter_command f x c = f x c
  let name = "multi-paxos"
  let gen = command_gen
  let command c = Some c
end

(* A snapshot that fails to decode, or covers another prefix than the one
   it is shipped for, is reported and makes nothing to install. *)
let test_decode_rejects () =
  let store = Store.create () in
  let log = Log.of_list [ Command.noop 0; Command.noop 1 ] in
  let module Fold = Store.Fold (Multipaxos_case) in
  Fold.compact store log ~node:0 ~upto:2 ~taken:false;
  let envelope = Store.encode store log in
  let is_error = function Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "garbage" true (is_error (Store.decode ~idx:2 "garbage"));
  Alcotest.(check bool) "other prefix" true (is_error (Store.decode ~idx:3 envelope));
  Alcotest.(check bool) "matching prefix" false (is_error (Store.decode ~idx:2 envelope))

let () =
  Alcotest.run "compaction"
    [
      ( "store",
        Alcotest.test_case "decode rejects bad input" `Quick test_decode_rejects
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_round_trip (module Sp_case);
               prop_round_trip (module Raft_case);
               prop_round_trip (module Multipaxos_case);
             ] );
    ]
