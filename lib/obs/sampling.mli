(** Adaptive per-kind trace sampling, applied at emit time (see
    {!Trace.set_sampling}).

    Deterministic and RNG-free. Sampleable kinds — the high-volume data
    path: [proposed], [accepted], [batch_flush], [send], [deliver] — keep
    their first [head] occurrences and then 1 in [rate]; message
    send/deliver pairs are decided by [send_id mod rate] instead, so a
    kept send always keeps its matching deliver and the causal DAG stays
    pairable. Faults, elections, reconfiguration milestones, drops and
    invariant inputs ([prepare], [accept], [decide], ...) are never
    sampled.

    The effective rates travel in the binary trace header (see
    {!to_meta} / {!rates_of_meta}), so the analyzer can scale-correct its
    counts. *)

type policy = { head : int; rate : int }
(** Keep the first [head] occurrences, then 1 in [rate].
    [rate = 1] keeps everything. *)

type t

val create : ?head:int -> rate:int -> unit -> t
(** Uniform policy over the sampleable kinds; [head] defaults to 1000.
    Raises [Invalid_argument] if [rate < 1]. *)

val keep_message : t -> deliver:bool -> int -> bool
(** [keep_message t ~deliver send_id] decides the [Msg_deliver]
    ([deliver]) or [Msg_send] event of message [send_id]. Stateless, so a
    site can ask before it builds the event ({!Trace.on_message}). *)

val keep_tag : t -> int -> bool
(** [keep_tag t tag] decides the next event of the kind with {!Event.kind_tag}
    [tag] ({!Trace.on_kind}). Stateful (advances the kind's countdown) but
    deterministic: the same event sequence always keeps the same subset, so
    each event is asked about once. Kinds without a policy are always kept.
    Not for the message kinds, which {!keep_message} decides by
    [send_id]. *)

val rates : t -> (string * int) list
(** Kinds actually sampled (rate > 1), in tag order. *)

val to_meta : t -> (string * string) list
(** {!rates} as trace-header metadata pairs ([("sample.<kind>", "<rate>")]). *)

val rates_of_meta : (string * string) list -> (string * int) list
(** Parse {!to_meta} pairs back out of a trace header. *)
