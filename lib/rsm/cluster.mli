(** Generic cluster driver: wires [n] protocol nodes into the simulated
    network, drives their tick timers, and exposes the closed-loop client
    of the paper's evaluation. *)

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

val default_config : config
(** 3 servers, 5 ms ticks, 50 ms election timeout, 0.1 ms latency (the
    paper's LAN RTT of 0.2 ms), unlimited bandwidth, seed 42, fixed
    batching, compaction disabled. *)

val election_ticks : config -> int
(** The election timeout in driver ticks (rounded, at least 1): the
    [election_ticks] every node of a cluster is created with. *)

module Make (P : Protocol.PROTOCOL) : sig
  type t

  val create : config -> t
  (** Build the network, the [n] protocol nodes, and start the tick loop. *)

  val net : t -> P.msg Simnet.Net.t
  val node : t -> int -> P.t
  val now : t -> float
  val run_ms : t -> float -> unit

  val max_decided : t -> int
  (** The most advanced decided count across the cluster. *)

  val leader : t -> int option
  (** The node a client should talk to: among the self-declared leaders,
      the one that has decided the most (during partial partitions several
      servers can claim leadership; only one makes progress). *)

  val crash : t -> int -> unit
  (** Crash a node: handlers and in-flight traffic are dropped and ticks
      stop. The protocol instance is retained for {!recover}. *)

  val recover : t -> int -> unit
  (** Restart a crashed node under the fail-recovery model: the protocol is
      rebuilt from its persistent state ([Protocol.PROTOCOL.restart]) and
      re-wired into the network (sessions with reachable peers bump). *)

  val propose_at : t -> node:int -> Replog.Command.t -> bool
  (** Submit one arbitrary command at a specific server (the chaos
      campaign's KV workload path). Returns false if refused. *)

  val propose_batch : t -> leader:int -> first_id:int -> count:int -> int
  (** Submit no-op commands with consecutive ids at [leader]; returns how
      many were accepted. *)

  val start_client : ?retry_ms:float -> t -> cp:int -> Client.t
  (** Start the closed-loop client with [cp] concurrent proposals.
      [retry_ms] defaults to four election timeouts. *)
end
