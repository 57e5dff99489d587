(** Happens-before structure of a trace.

    Simnet stamps every transmission with a network-unique send id and a
    Lamport clock (see {!Event.kind}), so a recorded event stream pairs into
    (send, deliver) edges; together with each node's local event order they
    form the run's causal DAG. Every result is a deterministic function of
    the event stream. *)

(** Streaming (send, deliver) pairing and Lamport-clock check over one
    table of open sends, mapping each open send id to its clock. A deliver
    removes its send: matched, it counts as an edge and its clock must
    exceed the send's; unmatched, it counts as an orphan. Each node's message
    clocks must also strictly increase in stream order. The clock check
    latches its first violation.

    The open-send table is capped: when full, the oldest open send is
    evicted and counted as unmatched. Eviction can only weaken the clock
    check (a late delivery of an evicted send is an unchecked orphan), never
    fabricate a violation. *)
module Monitor : sig
  type t

  val create : ?cap:int -> unit -> t
  (** [cap] bounds the open-send table (default unbounded). Raises
      [Invalid_argument] if [cap <= 0]. *)

  val observe : t -> Event.t -> unit

  val edges : t -> int
  (** Matched (send, deliver) pairs. *)

  val unmatched_sends : t -> int
  (** Sent but never seen delivered (dropped or in flight): open sends
      still live plus sends evicted by the cap. *)

  val orphan_delivers : t -> int
  (** Delivered without an open send — evidence of ring overflow or
      sampling. *)

  val clocks : t -> (unit, string) result
  (** [Ok ()] unless a delivery's clock did not exceed its send's or a
      node's message clock failed to increase; the first violation. *)
end

val critical_path :
  ?max_len:int ->
  Event.t array ->
  target:int ->
  stop:(Event.t -> bool) ->
  int list
(** Walk causal predecessors backwards from [events.(target)]: a delivery
    hops to its matching send, anything else to the node's previous event.
    Stops when [stop] holds at the current event (inclusive) or after
    [max_len] hops (default 100_000). Returns indices oldest-first, ending
    with [target]. *)
