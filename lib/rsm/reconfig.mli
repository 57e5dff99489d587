(** Reconfiguration runners for the Figure 9 experiments and the §6.1
    resilience tests.

    [Omni] implements the paper's service layer: the current configuration
    is stopped with a stop-sign; continuing servers start the next
    configuration immediately, and newly added servers fetch the log in
    parallel, in segments, from the continuing servers (re-routing around
    unreachable donors). A new server starts its BLE + Sequence Paxos
    instances only once the complete log has been fetched.

    [Raft_runner] implements the leader-driven scheme the paper compares
    against: new servers join as learners streamed by the leader alone; a
    config entry switches the voter set when it commits, so with a majority
    replaced, commits stall until the new servers catch up.

    Both runs share one harness: the net built from [net_cfg], the tick
    loop, the scheduled [faults], a per-second egress sampler, the
    closed-loop client of [cp] no-op proposals and the change requested at
    [reconfigure_at]. Only the servers differ. *)

type fault = Cut_link of int * int | Crash_node of int

type params = {
  net_cfg : Cluster.config;  (** [n] must cover all old and new node ids *)
  old_nodes : int list;
  new_nodes : int list;
  preload : int;  (** entries in the initial log (internal ids, 8 B each) *)
  cp : int;  (** client concurrency *)
  reconfigure_at : float;  (** ms at which the client requests the change *)
  total_ms : float;
  segment_entries : int;  (** migration segment size *)
  faults : (float * fault) list;
      (** scheduled faults, for the §6.1 resilience experiments *)
}

type result = {
  series : Metrics.Series.t;  (** client decided count over time *)
  io_series : (float * int array) list;
      (** (time, cumulative egress bytes per node), sampled every second *)
  reconfig_committed_at : float option;
      (** when the stop-sign (Omni) / config entry (Raft) was decided *)
  migration_done_at : float option;
      (** when every member of the new configuration was up and running *)
  leader_changes : int;
  decided : int;
}

module Omni : sig
  val run : params -> result
end

module Raft_runner : sig
  val run : params -> result
end

(** {1 Reading a result}

    Everything Figure 9 reports about a run, computed once here for the
    bench sections, [opx reconfig] and the examples. Windows are 5 s long. *)

val window_rates : params -> result -> (float * float) list
(** Client throughput per window over the run: (window start ms, req/s). *)

val peak_window_bytes : result -> int
(** The most egress any one node sent within one window. *)

val busiest_node_bytes : params -> result -> int
(** The busiest node's egress from [reconfigure_at] until one second after
    every new server was running (or the end of the run). For Raft this is
    the leader streaming the log alone; Omni-Paxos stripes it over the
    continuing servers. *)

val pp_result : params -> string -> Format.formatter -> result -> unit
(** [pp_result p name] prints one run under [name]: its window rates, its
    two milestones, its leader changes and {!peak_window_bytes}. *)

val pp_comparison : params -> Format.formatter -> result * result -> unit
(** Prints an (Omni-Paxos, Raft) pair of runs of [p] with {!pp_result},
    then how much shorter Omni-Paxos's reconfiguration period was and how
    much less its busiest node sent ({!busiest_node_bytes}). *)
