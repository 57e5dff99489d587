(* Shared test harness: wire Omni-Paxos replicas into a simulated network. *)

module Net = Simnet.Net

type cluster = {
  net : Omnipaxos.Replica.msg Net.t;
  replicas : Omnipaxos.Replica.t option array;
  storages : Omnipaxos.Replica.Storage.t array;
  tick_ms : float;
  hb_ticks : int;
  compaction : Omnipaxos.Compaction.config;
}

let all_ids n = List.init n (fun i -> i)
let peers_of n id = List.filter (fun j -> j <> id) (all_ids n)

let make_replica c id =
  let n = Array.length c.replicas in
  let send ~dst m =
    Net.send c.net ~src:id ~dst ~size:(Omnipaxos.Replica.msg_size m) m
  in
  let r =
    Omnipaxos.Replica.create ~id ~peers:(peers_of n id) ~hb_ticks:c.hb_ticks
      ~compaction:c.compaction ~storage:c.storages.(id) ~send ()
  in
  c.replicas.(id) <- Some r;
  Net.set_handler c.net id (fun ~src m -> Omnipaxos.Replica.handle r ~src m);
  Net.set_session_handler c.net id (fun ~peer ->
      Omnipaxos.Replica.session_reset r ~peer);
  r

let replica c id = Option.get c.replicas.(id)

(* Periodic driver: ticks every replica that is alive. *)
let rec schedule_ticks c =
  Net.schedule c.net ~delay:c.tick_ms (fun () ->
      Array.iteri
        (fun id r ->
          match r with
          | Some r when Net.is_up c.net id -> Omnipaxos.Replica.tick r
          | Some _ | None -> ())
        c.replicas;
      schedule_ticks c)

let make_cluster ?(n = 3) ?(tick_ms = 5.0) ?(hb_ticks = 10) ?(latency = 0.1)
    ?(seed = 7) ?(compaction = Omnipaxos.Compaction.disabled) () =
  let net = Net.create ~seed ~latency ~num_nodes:n () in
  let c =
    {
      net;
      replicas = Array.make n None;
      storages = Array.init n (fun _ -> Omnipaxos.Replica.Storage.create ());
      tick_ms;
      hb_ticks;
      compaction;
    }
  in
  List.iter (fun id -> ignore (make_replica c id)) (all_ids n);
  schedule_ticks c;
  c

let crash c id =
  Net.crash c.net id;
  c.replicas.(id) <- None

let recover c id =
  Net.recover c.net id;
  let r = make_replica c id in
  Omnipaxos.Replica.recover r

let current_leader c =
  let n = Array.length c.replicas in
  List.find_opt
    (fun id ->
      match c.replicas.(id) with
      | Some r -> Net.is_up c.net id && Omnipaxos.Replica.is_leader r
      | None -> false)
    (all_ids n)

let run_ms c ms = Net.run_for c.net ms

(* Propose a batch of no-op commands at the current leader; returns how many
   were accepted for proposal. *)
let propose_noops c ~first_id ~count =
  match current_leader c with
  | None -> 0
  | Some leader ->
      let r = replica c leader in
      let accepted = ref 0 in
      for i = first_id to first_id + count - 1 do
        if Omnipaxos.Replica.propose_cmd r (Replog.Command.noop i) then
          incr accepted
      done;
      !accepted

let decided_cmd_ids r =
  let entries =
    Omnipaxos.Replica.read_decided r ~from:0
  in
  List.filter_map
    (function
      | Omnipaxos.Entry.Cmd cmd -> Some cmd.Replog.Command.id
      | Omnipaxos.Entry.Stop_sign _ -> None)
    entries

(* SC2: of any two decided logs, one must be a prefix of the other. *)
let check_prefix_consistency logs =
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> Omnipaxos.Entry.equal x y && is_prefix xs ys
  in
  List.for_all
    (fun a -> List.for_all (fun b -> is_prefix a b || is_prefix b a) logs)
    logs
