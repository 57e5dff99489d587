(** Generic closed-loop client, the workload driver of the paper's
    evaluation: keeps [cp] concurrent proposals outstanding against whatever
    leader the callbacks expose, re-proposing after [retry_ms] without
    progress (commands stuck at a deposed or stopped leader are abandoned
    and re-issued with fresh ids). Records the cumulative decided count
    over simulated time and the number of leader changes it observed. *)

type callbacks = {
  now : unit -> float;
  decided : unit -> int;  (** monotone count of decided client commands *)
  leader : unit -> int option;
  propose_batch : leader:int -> first_id:int -> count:int -> int;
      (** submit up to [count] commands with consecutive ids starting at
          [first_id]; returns how many were accepted *)
  schedule : delay:float -> (unit -> unit) -> unit;
}

type t

val start : ?retry_ms:float -> poll_ms:float -> cp:int -> callbacks -> t
(** Start polling every [poll_ms]; [retry_ms] (default 200) is the
    no-progress interval after which outstanding proposals are abandoned
    and re-issued. *)

val stop : t -> unit
val series : t -> Metrics.Series.t
val leader_changes : t -> int
val decided : t -> int

val latency : t -> Obs.Metric.Histogram.t
(** Client-visible command latency (ms, simulated time), submission to
    decide, sampled at poll granularity. Commands abandoned by the retry
    path contribute no sample. *)

val reset_latency : t -> unit
(** Discard latency samples collected so far (e.g. after warmup). The
    histogram is reset in place: [latency] keeps returning the same one. *)

(** Client-visible operation histories: the raw material of the chaos
    campaign's linearizability check (see [lib/chaos]). Every operation is
    recorded as an invocation, later matched by a response (with the result
    computed when the submission server applied it) or a timeout (the
    operation stays pending forever — it may or may not take effect). *)
module History : sig
  type event =
    | Invoke of {
        client : int;
        op_id : int;
        node : int;  (** server the operation was submitted to *)
        op : Replog.Command.op;
      }
    | Response of { client : int; op_id : int; result : Replog.Kv.result }
    | Timeout of { client : int; op_id : int }

  type entry = { h_time : float; h_event : event }
  type t

  val create : unit -> t
  val record : t -> time:float -> event -> unit
  val length : t -> int

  val events : t -> entry list
  (** In recording (i.e. chronological) order. *)

  val pp_op : Format.formatter -> Replog.Command.op -> unit
  val pp_result : Format.formatter -> Replog.Kv.result -> unit
  val pp_event : Format.formatter -> event -> unit
  val pp : Format.formatter -> t -> unit
end

(** Closed-loop KV client: keeps exactly one operation outstanding, drawn
    from a private PRNG over a small key space (45% put / 45% get / 10%
    del, globally-unique put values), and records its history. *)
module Kv : sig
  type callbacks = {
    kc_now : unit -> float;
    kc_choose_node : read:bool -> int option;
        (** where to submit the next operation ([None]: retry next poll) *)
    kc_submit : node:int -> Replog.Command.t -> bool;
    kc_result : node:int -> op_id:int -> Replog.Kv.result option;
        (** the apply-time result once [node] has applied [op_id] *)
    kc_schedule : delay:float -> (unit -> unit) -> unit;
    kc_next_id : unit -> int;  (** globally unique command ids *)
  }

  type t

  val start :
    history:History.t ->
    client:int ->
    rng:Random.State.t ->
    keys:int ->
    timeout_ms:float ->
    poll_ms:float ->
    callbacks ->
    t

  val stop : t -> unit
  val completed : t -> int
  val timed_out : t -> int
end
