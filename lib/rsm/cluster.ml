(** Generic cluster driver: wires [n] protocol nodes into the simulated
    network, drives their tick timers, and runs the closed-loop client
    workload of the paper's evaluation ([cp] concurrent proposals kept
    outstanding). *)

module Net = Simnet.Net

type config = {
  n : int;
  tick_ms : float;  (** driver tick; also the batch-flush cadence *)
  election_timeout_ms : float;
  latency_ms : float;  (** one-way link delay *)
  egress_bw : float;  (** per-node egress, bytes/ms; [infinity] = unlimited *)
  seed : int;
  batching : Omnipaxos.Batching.config;
      (** hot-path flush policy, threaded to every node *)
  compaction : Omnipaxos.Compaction.config;
      (** snapshot-and-trim trigger, threaded to every node *)
}

let default_config =
  {
    n = 3;
    tick_ms = 5.0;
    election_timeout_ms = 50.0;
    latency_ms = 0.1;
    egress_bw = infinity;
    seed = 42;
    batching = Omnipaxos.Batching.fixed;
    compaction = Omnipaxos.Compaction.disabled;
  }

let election_ticks cfg =
  max 1 (int_of_float (Float.round (cfg.election_timeout_ms /. cfg.tick_ms)))

module Make (P : Protocol.PROTOCOL) = struct
  type t = {
    cfg : config;
    net : P.msg Net.t;
    nodes : P.t array;
    m_accepted : Obs.Metric.Counter.t;
    m_rejected : Obs.Metric.Counter.t;
  }

  let all_ids n = List.init n (fun i -> i)

  let create cfg =
    let net =
      Net.create ~seed:cfg.seed ~latency:cfg.latency_ms
        ~egress_bw:cfg.egress_bw ~num_nodes:cfg.n ()
    in
    let election_ticks = election_ticks cfg in
    let make_node id =
      let peers = List.filter (fun j -> j <> id) (all_ids cfg.n) in
      let send ~dst m = Net.send net ~src:id ~dst ~size:(P.msg_size m) m in
      P.create ~batching:cfg.batching ~compaction:cfg.compaction ~id ~peers
        ~election_ticks ~rand:(Net.rng net) ~send ()
    in
    let nodes = Array.init cfg.n make_node in
    let install_handlers id node =
      Net.set_handler net id (fun ~src m -> P.handle node ~src m);
      Net.set_session_handler net id (fun ~peer -> P.session_reset node ~peer)
    in
    Array.iteri install_handlers nodes;
    let t =
      {
        cfg;
        net;
        nodes;
        m_accepted =
          Obs.Metric.Registry.(counter default "cluster.proposals.accepted");
        m_rejected =
          Obs.Metric.Registry.(counter default "cluster.proposals.rejected");
      }
    in
    let rec tick_loop () =
      Net.schedule net ~delay:cfg.tick_ms (fun () ->
          Array.iteri
            (fun id node -> if Net.is_up net id then P.tick node)
            nodes;
          tick_loop ())
    in
    tick_loop ();
    t

  let net t = t.net
  let node t i = t.nodes.(i)
  let now t = Net.now t.net
  let run_ms t ms = Net.run_for t.net ms

  let max_decided t =
    Array.fold_left (fun acc n -> max acc (P.decided_count n)) 0 t.nodes

  (* The node the client sends to: among the self-declared leaders, the one
     that has actually decided the most (during partial partitions several
     servers can claim leadership; only one makes progress). *)
  let leader t =
    let best = ref None in
    Array.iteri
      (fun id node ->
        if Net.is_up t.net id && P.is_leader node then
          match !best with
          | Some (_, d) when d >= P.decided_count node -> ()
          | Some _ | None -> best := Some (id, P.decided_count node))
      t.nodes;
    Option.map fst !best

  (* Fail-recovery fault hooks for the chaos campaigns and property tests.
     [Net.crash] drops the node's handlers and in-flight traffic; the tick
     loop already skips crashed nodes. [recover] restarts the protocol node
     from its persistent state and re-wires it into the network. *)
  let crash t i = Net.crash t.net i

  let recover t i =
    Net.recover t.net i;
    let node = t.nodes.(i) in
    P.restart node;
    Net.set_handler t.net i (fun ~src m -> P.handle node ~src m);
    Net.set_session_handler t.net i (fun ~peer -> P.session_reset node ~peer)

  let propose_at t ~node cmd =
    let ok = P.propose t.nodes.(node) cmd in
    Obs.Metric.Counter.add (if ok then t.m_accepted else t.m_rejected) 1;
    ok

  let propose_batch t ~leader ~first_id ~count =
    let node = t.nodes.(leader) in
    let got = ref 0 in
    (try
       for i = first_id to first_id + count - 1 do
         if P.propose node (Replog.Command.noop i) then incr got
         else raise Exit
       done
     with Exit -> ());
    Obs.Metric.Counter.add t.m_accepted !got;
    Obs.Metric.Counter.add t.m_rejected (count - !got);
    !got

  let start_client ?retry_ms t ~cp =
    let retry_ms =
      Option.value retry_ms ~default:(4.0 *. t.cfg.election_timeout_ms)
    in
    Client.start ~retry_ms ~poll_ms:t.cfg.tick_ms ~cp
      {
        Client.now = (fun () -> now t);
        decided = (fun () -> max_decided t);
        leader = (fun () -> leader t);
        propose_batch =
          (fun ~leader ~first_id ~count -> propose_batch t ~leader ~first_id ~count);
        schedule = (fun ~delay f -> Net.schedule t.net ~delay f);
      }
end
