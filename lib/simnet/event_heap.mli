(** The simulator's event queue: a binary min-heap of [(time, payload)]
    events ordered by time, equal times in push order, so a simulation is
    fully deterministic.

    Stored as a struct of arrays (a [Float.Array] of times, [int] arrays of
    sequence numbers and payloads), so that once the arrays have grown to
    the high-water mark no operation allocates. Dev builds (dune's default
    profile, [-opaque]) inline nothing across modules, so a float passed to
    or returned from a function here is boxed at the call. The hot
    operations therefore move times through flat float storage instead:
    {!push_cell} reads the time from a [Float.Array] cell, {!pop_payload}
    writes it into a {!clock}, and {!due} compares inside the heap. *)

type clock = { mutable now : float }
(** A simulated clock. An all-float record is stored flat, so reading and
    advancing [now] never boxes. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> time:float -> int -> unit
(** Add an event. Allocation-free when [time] is already boxed (a constant,
    a function argument); a float computed at the call site is boxed to be
    passed. *)

val push_cell : t -> Float.Array.t -> int -> int -> unit
(** [push_cell t cells i payload] adds [payload] at time
    [Float.Array.get cells i], without boxing the time. *)

val min_time : t -> float
(** Time of the next event; [infinity] when the heap is empty. *)

val due : t -> float -> bool
(** [due t deadline]: the heap is not empty and its next event is at or
    before [deadline]. Unlike comparing [min_time] against [deadline], it is
    false on an empty heap even for [deadline = infinity]. *)

val min_payload : t -> int
(** Payload of the next event, without removing it.
    @raise Invalid_argument when the heap is empty. *)

val pop_payload : t -> clock -> int
(** Remove the next event and return its payload, advancing [clock.now] to
    the event's time if that is later.
    @raise Invalid_argument when the heap is empty. *)

val clear : t -> unit

type stats = { hs_size : int; hs_high_water : int; hs_pushes : int; hs_pops : int }

val stats : t -> stats
(** Current size, maximum size ever reached, events ever pushed and ever
    popped. *)
