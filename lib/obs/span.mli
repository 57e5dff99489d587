(** Proposal-lifecycle spans over a recorded event stream: one span per
    log index, tracking a command from the moment it enters the leader's
    log to the moment it is decided, split into queueing (proposed -> first
    Accept), replication (first Accept -> quorum ack) and commit (quorum ack
    -> decided). A re-proposal at the same index (leader change) replaces
    the span. *)

(** Streaming span tracker with O(active spans) memory: a span is finalised
    (and returned to the caller) the moment the decided watermark passes its
    index, so only the in-flight pipeline window stays live. Decided spans
    are produced in ascending log-index order, so aggregates over them are
    deterministic. A phase is [None] when its milestone never appeared in
    the trace. *)
module Tracker : sig
  type closed = {
    c_log_idx : int;
    c_total : float;  (** decided - proposed *)
    c_queueing : float option;  (** first accept - proposed *)
    c_replication : float option;  (** quorum ack - first accept *)
    c_commit : float option;  (** decided - quorum ack *)
  }

  type t

  val create : unit -> t

  val observe : t -> quorum:int -> Event.t -> closed list
  (** Feed one event; returns the spans this event finalised, ascending by
      log index. [quorum] is the cluster quorum size — a constant when the
      cluster size is known up front, or a running value for single-pass
      stdin use. *)

  val active : t -> int
  (** Spans proposed but not yet decided (the live state size). *)

  val total_spans : t -> int
  (** Finalised + active. *)

  val decided_spans : t -> int
end
