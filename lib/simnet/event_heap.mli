(** The simulator's event queue: [(time, payload)] events popped in time
    order, equal times in push order, so a simulation is fully
    deterministic.

    Two parts hold the events: a binary min-heap and a FIFO lane. Every
    push takes the next sequence number, and {!pop_payload} takes the
    smaller of the two parts' first events by [(time, seq)], so the pop
    order is the one a single heap gives, whichever part holds an event.
    {!push_lane_cell} puts an event in the lane when it is not before the
    lane's last event and the lane has room, and in the heap otherwise:
    the lane stays sorted, so its head is its first event. Events that
    arrive in time order (the simulator's deliveries on a uniform-latency
    network) skip the heap's O(log n) sift, in and out. The lane's
    capacity is fixed at {!create}; the heap's arrays grow when the events
    of both parts fill them, at the same pushes as a heap alone.

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

val create : ?lane:int -> unit -> t
(** [lane] is the lane's capacity, rounded up to a power of two; [0] (the
    default) makes no lane, and {!push_lane_cell} then pushes to the
    heap. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> time:float -> int -> unit
(** Add an event. Allocation-free when [time] is already boxed (a constant,
    a function argument); a float computed at the call site is boxed to be
    passed. *)

val push_cell : t -> Float.Array.t -> int -> int -> unit
(** [push_cell t cells i payload] adds [payload] at time
    [Float.Array.get cells i], without boxing the time. *)

val push_lane_cell : t -> Float.Array.t -> int -> int -> unit
(** Like {!push_cell}, but the event goes to the FIFO lane when the lane
    has room and the event's time is not before the lane's last event's.
    The pop order is the same either way. *)

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

type stats = { hs_size : int; hs_high_water : int; hs_pushes : int; hs_pops : int }

val stats : t -> stats
(** Current size, maximum size ever reached, events ever pushed and ever
    popped, each over the heap and the lane together. *)

val lane_pops : t -> int
(** Events ever popped from the lane; [hs_pops] minus this were popped
    from the heap. *)
