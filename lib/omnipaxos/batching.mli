(** Batch-flush policy of the Sequence Paxos leader (and, read by their
    cores too, of the Raft and Multi-Paxos baselines, so the Figure 7/8
    comparisons stay apples-to-apples).

    The {e fixed} policy is the historical behaviour: the leader accumulates
    proposals and, on every driver tick, sends one [Accept] per follower
    capped at [max_batch] entries; followers acknowledge every batch
    immediately. Decide latency is therefore bounded below by the tick
    period regardless of load.

    The {e adaptive} policy still flushes on every tick but adds:

    - {b size-triggered flushes}: a proposal burst is flushed as soon as the
      unsent backlog reaches the current batch cap, without waiting for the
      next tick — under load, replication latency drops from O(tick) to
      O(RTT);
    - {b backlog-aware batch sizing}: the per-[Accept] cap adapts
      multiplicatively (doubling towards [max_batch] while flushes run
      full, halving towards [min_batch] as the backlog drains), so light
      workloads ship small, low-latency frames while heavy backlogs
      amortise headers over large frames;
    - {b Accepted-ack coalescing}: followers acknowledge at most once per
      [ack_every] appended entries, deferring the rest to their next tick,
      which trims the ack storm that eager flushing would otherwise cause.

    With [min_batch = max_batch] and [ack_every = 1] the adaptive policy
    degenerates exactly to the fixed one (a property checked by
    [test/test_batching.ml]). *)

type config = {
  adaptive : bool;  (** [false]: the historical fixed policy *)
  max_batch : int;  (** hard cap on entries per [Accept] message *)
  min_batch : int;
      (** adaptive: floor of the batch cap and initial eager-flush
          threshold *)
  ack_every : int;
      (** adaptive: followers coalesce [Accepted] acknowledgements, sending
          at most one per this many appended entries (plus one per tick for
          stragglers); 1 = acknowledge every batch *)
}

val fixed : config
(** The historical policy: [max_batch = 4096], flush on every tick, ack
    every batch. *)

val adaptive : config
(** Default adaptive policy: cap in [64, 4096] (AIMD), eager size-triggered
    flushes, acks coalesced 4:1. *)

val name : config -> string
(** ["fixed"] or ["adaptive"] — the label used in benchmark reports. *)

val validated : config -> config
(** Clamp nonsensical values ([min_batch] and [ack_every] below 1;
    [max_batch] below [min_batch]) into a safe configuration. *)
