(** Metrics: counters, gauges and base-2 log-scale histograms behind a
    string-keyed registry. Recording ([Counter.incr]/[add], [Gauge.set]/
    [add], [Histogram.observe]/[observe_n]) allocates nothing: it is a few
    integer and unboxed-float stores, cheap enough for hot paths.

    Histograms keep exact count/sum/min/max alongside the buckets, so
    [mean] is exact; only [percentile] is bucket-interpolated. Spreads and
    confidence intervals are computed by [Rsm.Metrics.Stats]. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
  val reset : t -> unit
end

module Histogram : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  (** Record a sample. Negative samples are clamped to 0. *)

  val observe_n : t -> float -> int -> unit
  (** [observe_n t x k] records [k] samples of value [x]: the same buckets,
      count, min, max and percentiles as [k] calls of [observe t x], and a
      bit-identical [sum] ([x] is added [k] times, not multiplied). Its cost
      is one bucket update plus [k] float additions. No-op when [k <= 0]. *)

  val bucket_of : float -> int
  (** The bucket a (clamped) sample falls in: 0 for [x < 1], for [infinity]
      and for [nan]; otherwise the binary exponent of [x] ([snd (Float.frexp
      x)]), capped at 62. Read from the IEEE exponent bits, so it allocates
      nothing. *)

  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  (** [nan] when empty. *)

  val min_value : t -> float
  val max_value : t -> float

  val percentile : t -> p:float -> float
  (** Bucket-interpolated percentile, [p] in [0, 100]. [nan] when empty.
      Buckets are base-2 log-scale: bucket 0 holds [0, 1), bucket [i >= 1]
      holds [2^(i-1), 2^i). *)

  val buckets : t -> (float * int) list
  (** Non-empty buckets as (upper bound, count), ascending. *)

  val reset : t -> unit
  (** Zero every bucket and the exact count/sum/min/max, as if freshly
      created — for per-window sampling without re-registering. *)
end

module Registry : sig
  type t

  val create : unit -> t

  val counter : t -> string -> Counter.t
  (** Find or create. The same name always returns the same metric. *)

  val gauge : t -> string -> Gauge.t
  val histogram : t -> string -> Histogram.t
  val clear : t -> unit

  val counters : t -> (string * Counter.t) list
  (** Every registered counter, sorted by key. All registry iteration is
      sorted: registration order depends on which code paths ran first,
      which would make rendered output nondeterministic. *)

  val gauges : t -> (string * Gauge.t) list
  (** Every registered gauge, sorted by key. *)

  val histograms : t -> (string * Histogram.t) list
  (** Every registered histogram, sorted by key. *)

  val to_lines : t -> string list
  (** One human-readable line per metric, sorted by name. *)

  val render_exposition : t -> string
  (** Prometheus-style text format: a [# TYPE] line per metric, counters
      and gauges as [name value], histograms as cumulative
      [name_bucket{le="..."}] lines plus [name_sum]/[name_count]. Metric
      names are sanitised to [[a-zA-Z0-9_:]] (dots become underscores) and
      the output is sorted by key, so it is byte-deterministic for
      deterministic metric values. *)

  val snapshot_json : t -> time:float -> Bench_report.Json.t
  (** One time-stamped snapshot of every metric (counters, gauges, and
      histogram count/sum/p50/p99/max), for periodic JSONL series. *)

  val default : t
  (** The process-wide registry the instrumented layers record into. *)
end
