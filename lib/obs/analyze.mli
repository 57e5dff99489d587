(** Deterministic trace analyzer.

    Consumes a recorded event stream (in-memory list, trace file or stdin)
    and produces a report: per-node leader timelines, stall windows,
    commit-latency percentiles with the span phase breakdown, causal-DAG
    statistics, the causal critical path of the slowest decided entries,
    health alerts / recovery episodes and invariant results.

    The analysis is a single incremental fold with bounded state
    ({!Stream}), so arbitrarily long traces are handled in constant memory
    — and {!run} is that same fold with the bounds lifted. The report is a
    pure function of the input events: two runs over the same trace render
    byte-identical text and JSON (this is asserted by the determinism
    gate), so reports can be diffed and regression-gated. *)

type stall = { stall_from : float; stall_until : float option }

type commit_stats = {
  spans_total : int;
  spans_decided : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max_ms : float;
  mean_queueing : float;
  mean_replication : float;
  mean_commit : float;
}

type hop = { hop_time : float; hop_node : int; hop_desc : string }

type path = {
  path_log_idx : int;
  path_total_ms : float;
  path_hops : hop list;
}

type report = {
  n : int;
  events : int;
  ring_dropped : int;
      (** events lost to ring overflow before analysis (satellite: surfaced
          so an overflowed trace is distinguishable from a complete one) *)
  ring_dropped_by_kind : (string * int) list;
      (** the overflow losses per event kind, sorted by kind name — empty
          when nothing was dropped (and for file traces, which have no
          ring) *)
  sampling : (string * int) list;
      (** emit-time sampling rates (kind, keep 1 in k) read from a binary
          trace header; empty for unsampled or JSONL traces. Counts for
          these kinds are post-sampling. *)
  t_start : float;
  t_end : float;
  by_kind : (string * int) list;  (** sorted by kind name *)
  drops_by_reason : (string * int) list;
  leader_timeline : (int * (float * Event.ballot) list) list;
      (** per node: chronological (time, observed leader) changes *)
  stall_ms : float;  (** threshold used for {!field-stalls} *)
  stalls : stall list;
  commit : commit_stats option;  (** [None] when nothing was decided *)
  causal_edges : int;
  unmatched_sends : int;
  orphan_delivers : int;
  lamport : (unit, string) result;
  critical_paths : path list;  (** up to 3 slowest decided entries *)
  health_alerts : Health.alert list;
  recoveries : Health.recovery list;
  invariants : (string * (unit, Invariant.violation) result) list;
}

(** The incremental analyzer: feed events one at a time, take the report at
    the end. Live state is bounded — O(in-flight spans + open sends +
    window) — independent of trace length:

    - spans are finalised as the decided watermark passes them, with
      running sums for the phase means and an exact latency store that
      degrades to a log-bucket percentile sketch past [exact_limit];
    - the causal monitor ({!Causal.Monitor}) keeps only open sends, capped
      at [causal_cap] (oldest evicted and counted unmatched);
    - critical paths come from a ring of the last [window] events;
    - health detectors and invariant monitors are already incremental.

    With the bounds at their defaults, any trace that fits within them
    (fewer than [window] events, etc.) produces exactly the {!run} report;
    beyond them only the percentiles and critical paths degrade, and
    deterministically so. *)
module Stream : sig
  type t

  val create :
    ?health:Health.config ->
    ?n_hint:int ->
    ?window:int ->
    ?exact_limit:int ->
    ?causal_cap:int ->
    unit ->
    t
  (** [n_hint] is the cluster size when known up front (fixes the quorum
      and health suspect-matrix size); without it both are derived from the
      running maximum node id (matrix sized for 64 nodes). [window]
      (default 65536) bounds the critical-path event ring, [exact_limit]
      (default 65536) the exact commit-latency store, [causal_cap] (default
      262144) the open-send table. *)

  val observe : t -> Event.t -> unit
  (** Usable directly as a {!Trace.sink} for online analysis. *)

  val finish :
    ?ring_dropped:int ->
    ?ring_dropped_by_kind:(string * int) list ->
    ?sampling:(string * int) list ->
    t ->
    report
  (** Take the report. [finish] does not mutate the stream. *)
end

val run :
  ?health:Health.config ->
  ?ring_dropped:int ->
  ?ring_dropped_by_kind:(string * int) list ->
  ?sampling:(string * int) list ->
  Event.t list ->
  report
(** Analyze an in-memory event stream (in emission order). [health]
    defaults to {!Health.default_config} with a 50 ms election timeout; a
    config whose [n] is smaller than the cluster inferred from the trace is
    grown to that size. [ring_dropped] (default 0) is reported as
    {!field-ring_dropped}. Equivalent to a {!Stream} fold with the bounds
    lifted. *)

val of_file : ?health:Health.config -> string -> (report, string) result
(** Analyze a trace file, JSONL or binary (auto-detected). Two passes: the
    first infers the cluster size and reads the header, the second streams
    the events — memory stays bounded regardless of trace length. Blank
    JSONL lines are skipped; a malformed line (or binary record) fails with
    its position. *)

val of_channel : ?health:Health.config -> in_channel -> (report, string) result
(** Single-pass bounded-memory analysis of a non-seekable stream (stdin,
    pipes), either format. The cluster size is inferred on the fly, so the
    quorum used for early spans can lag until every node has appeared in
    the stream; the health suspect matrix covers nodes 0..63. *)

val pp : Format.formatter -> report -> unit
(** Human-readable fixed-precision rendering; byte-stable per report.
    Sampling and per-kind ring-drop sections appear only when non-empty, so
    reports over unsampled, non-overflowed traces render exactly as before
    these fields existed. *)

val to_string : report -> string

val to_json : report -> Bench_report.Json.t
(** Machine-readable form of the same report (schema_version 2: adds
    [ring_dropped_by_kind] and [sampling]). *)
