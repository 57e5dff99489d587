(** Deterministic discrete-event network simulator.

    Models a cluster of [n] nodes connected by bidirectional links that can be
    cut per direction (partial connectivity), with per-link latency, a
    per-node egress bandwidth budget (the sender serialises outgoing bytes),
    and session-based FIFO perfect links: messages in flight when a link goes
    down are dropped, and when a pair of nodes becomes mutually reachable
    again the session number is bumped and both endpoints are notified (the
    equivalent of a TCP session drop/re-establishment).

    All time is in simulated milliseconds. Execution is single-threaded and
    fully deterministic for a given seed.

    When [Obs.Trace] is enabled, the simulator emits structured trace events
    for every topology change (link cut/heal, session drop/up), node
    crash/recovery, and message send/deliver/drop (with size and src/dst).
    [create] installs the simulated clock as the tracer's clock, so protocol
    events emitted above the network carry simulated timestamps too.
    Tracing off (the default) costs one branch per event site. *)

type 'm t
(** A simulation carrying messages of type ['m]. *)

val create :
  ?seed:int ->
  ?latency:float ->
  ?egress_bw:float ->
  num_nodes:int ->
  unit ->
  'm t
(** [create ~num_nodes ()] builds a fully-connected network.
    [latency] is the default one-way link delay in ms (default [0.1], i.e.
    0.2 ms RTT as in the paper's LAN setting). [egress_bw] is each node's
    outgoing bandwidth in bytes/ms ([infinity] disables the egress model;
    default [infinity]). A sender's outgoing messages drain at [egress_bw],
    shared across destinations round-robin in 4096-byte chunks — a large
    transfer delays, but does not starve, the sender's other traffic, like
    TCP flows interleaving at packet granularity. *)

(** {1 Clock and execution} *)

val now : 'm t -> float
val num_nodes : 'm t -> int
val rng : 'm t -> Random.State.t

val schedule : 'm t -> delay:float -> (unit -> unit) -> unit
(** Run a callback after [delay] ms of simulated time. *)

val run_until : 'm t -> float -> unit
(** Process events in timestamp order until the clock reaches the given
    absolute time (events at exactly that time are processed). *)

val run_for : 'm t -> float -> unit
(** [run_for t d] is [run_until t (now t +. d)]. *)

val step : 'm t -> bool
(** Process the single next event. Returns [false] if the queue is empty. *)

val drain : 'm t -> unit
(** Process events until the queue is empty. Only terminates if the
    simulation stops scheduling new events (e.g. no periodic timers). *)

(** {1 Node wiring} *)

val set_handler : 'm t -> int -> (src:int -> 'm -> unit) -> unit
(** Install the message-delivery handler of a node. *)

val set_session_handler : 'm t -> int -> (peer:int -> unit) -> unit
(** Install the handler called when the session with [peer] is
    re-established after having been torn down. *)

val send : 'm t -> src:int -> dst:int -> size:int -> 'm -> unit
(** Transmit a message of [size] bytes. The message is dropped if either
    endpoint is crashed, the [src -> dst] direction is cut now, or the link
    session changes before delivery. Delivery time is
    [egress queueing + size/bw + latency]. *)

(** {1 Topology control} *)

val set_link : 'm t -> int -> int -> bool -> unit
(** [set_link t a b up] sets both directions of the [a <-> b] link. Restoring
    a previously-cut pair bumps the session and notifies both endpoints. *)

val set_link_oneway : 'm t -> src:int -> dst:int -> bool -> unit
(** Cut or restore a single direction (half-duplex partial connectivity). *)

val link_up : 'm t -> int -> int -> bool
(** Whether the [a -> b] direction currently delivers messages. *)

val set_latency : 'm t -> int -> int -> float -> unit
(** Set the one-way delay of both directions of the [a <-> b] link. *)

val reset_session : 'm t -> int -> int -> unit
(** Tear down and immediately re-establish the transport session of a
    connected pair (the equivalent of a TCP reset): in-flight messages of
    the old session are invalidated and both endpoints get their session
    handler invoked. No-op if the pair is not currently connected. *)

val partition : 'm t -> int list -> int list -> unit
(** Cut every link between the two groups. *)

val heal_all : 'm t -> unit
(** Restore every link (sessions of previously-cut pairs are bumped). *)

val isolate : 'm t -> int -> unit
(** Cut all links of a node. *)

(** {1 Crash / recovery} *)

val crash : 'm t -> int -> unit
(** Crash a node: its handler is dropped and all its in-flight traffic is
    lost. Link state is unaffected. *)

val recover : 'm t -> int -> unit
(** Mark a crashed node as up again. The caller must re-install handlers
    (the fail-recovery model: volatile state is lost, the protocol restarts
    from its persistent storage). Sessions with all reachable peers are
    bumped, as the transport connections do not survive the crash. *)

val is_up : 'm t -> int -> bool

(** {1 Accounting} *)

val bytes_sent : 'm t -> int -> int
(** Total bytes successfully handed to the network by a node. *)

val messages_delivered : 'm t -> int
(** Total messages delivered across the whole network. *)

val bytes_delivered : 'm t -> int
(** Total bytes delivered across the whole network (payload sizes of the
    messages that reached a handler). *)

val bytes_delivered_at : 'm t -> int -> int
(** Bytes delivered to (received by) a given node. *)

(** {1 Internals instrumentation}

    Counters over the simulator's own machinery (event heap, dispatch loop,
    egress queues), maintained unconditionally as a few integer ops per
    event — instrumented and uninstrumented runs stay byte-identical. All
    values are pure functions of the simulated execution and therefore
    deterministic per seed. *)

type heap_stats = Event_heap.stats = {
  hs_size : int;  (** events currently queued *)
  hs_high_water : int;  (** maximum queue size ever reached *)
  hs_pushes : int;  (** total events ever scheduled *)
  hs_pops : int;  (** total events ever dispatched *)
}

val heap_stats : 'm t -> heap_stats
(** Over the event heap and its FIFO lane together (see {!Event_heap}). *)

val lane_pops : 'm t -> int
(** Events dispatched from the event queue's FIFO lane, where deliveries
    pushed in time order go; [hs_pops] minus this came from its heap. *)

val dispatch_counts : 'm t -> (string * int) list
(** Events dispatched per class ([deliver], [egress_step], [session_reset],
    [timer]), sorted by label. *)

val deliver_in_flight : 'm t -> int
(** [Deliver] events currently in the heap (sent, not yet arrived). *)

val link_queue_depth : 'm t -> src:int -> dst:int -> int
(** Messages waiting in the [src -> dst] egress queue (0 when the egress
    bandwidth model is off — messages are then in flight once sent). A
    message leaves the queue when its last chunk starts transmitting. *)

val egress_queue_depth : 'm t -> int -> int
(** Messages queued by a sender across all destinations. *)

val egress_queue_high_water : 'm t -> int -> int
(** Maximum of {!egress_queue_depth} ever reached by this sender. *)

val publish_metrics : 'm t -> unit
(** Mirror the current internals into gauges of
    [Obs.Metric.Registry.default] (keys under [simnet.]). Intended to be
    called from samplers — the dashboard, metric snapshots — not from hot
    paths. *)
