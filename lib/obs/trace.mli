(** The global tracer: a typed event stream with pluggable sinks.

    Off by default. Instrumentation sites are guarded by {!on} (one ref load
    and branch), and the guard is also false while tracing is enabled but no
    sink is subscribed — the disabled path costs ~nothing, so benchmark
    numbers are unaffected (verified by [bench/check_overhead.ml]).

    The tracer is process-global: the repository runs one deterministic
    single-threaded simulation at a time, so instrumentation sites do not
    thread a handle through every constructor. [Simnet.Net.create] installs
    its simulated clock here; events emitted outside any simulation carry
    time 0. *)

type sink = Event.t -> unit

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val on : unit -> bool
(** True when tracing is enabled {e and} at least one sink is subscribed.
    Guard every [emit] call site with this so argument construction is
    skipped when tracing is off. *)

val on_message : deliver:bool -> int -> bool
(** [on_message ~deliver send_id]: {!on}, and the sampler (if any) keeps
    the [Msg_deliver] ([deliver]) or [Msg_send] event of message
    [send_id]. The guard of the message sites: it decides before the
    event and its timestamp are built, so a sampled-out message costs no
    allocation; a site that gets [true] emits with {!emit_at}. Costs the
    same as {!on} when tracing is off and one load more without a
    sampler. *)

val on_kind : int -> bool
(** [on_kind tag]: {!on}, and the sampler (if any) keeps the next event of
    the counter-sampled kind [tag] ({!Event.proposed_tag},
    {!Event.accepted_tag}, {!Event.batch_flush_tag}). The guard of those
    sites: it decides before the event is built, so a sampled-out event
    costs no allocation. Asking advances the sampler's countdown, so each
    event is asked about once; a site that gets [true] emits with
    {!emit}. *)

val subscribe : sink -> int
(** Register a sink; returns an id for {!unsubscribe}. *)

val unsubscribe : int -> unit

val set_clock : (unit -> float) -> unit
(** Install the simulated clock used to stamp events emitted via {!emit}. *)

val set_sampling : Sampling.t option -> unit
(** Install (or clear, with [None]) an emit-time sampler. Only the guards
    {!on_message} and {!on_kind} ask it, inside the hot path — the
    disabled-path cost model is unchanged — so a sampled-out event is
    never built and no sink sees it. The effective rates are
    recorded in binary trace headers (see {!with_file}); JSONL traces have
    no header, so sampled JSONL traces carry no rate metadata. *)

val sampling : unit -> Sampling.t option

val set_run_meta : (string * string) list -> unit
(** Install descriptive run metadata (seed, cluster size, ...) for binary
    trace headers. [Simnet.Net.create] calls this with its parameters; the
    most recent call before the first traced event wins. *)

val run_meta : unit -> (string * string) list

val emit : node:int -> Event.kind -> unit
(** Emit an event stamped with the installed clock. No-op unless {!on}.
    The sampler is not asked: a sampleable event is emitted only after its
    site's {!on_kind} or {!on_message} kept it. *)

val emit_at : time:float -> node:int -> Event.kind -> unit
(** Emit with an explicit timestamp (used by the simulator, which knows its
    own clock). No-op unless {!on}. *)

val jsonl_sink : out_channel -> sink
(** One [Tracebin.to_json] object per line. *)

val with_sink :
  make_sink:(unit -> sink) -> close:(unit -> unit) -> (unit -> 'a) -> 'a
(** [with_sink ~make_sink ~close f] runs [f] with tracing enabled into the
    sink [make_sink ()], then unsubscribes it, restores the previous
    enabled state and calls [close] — also when [f] raises. *)

type recording = {
  events : Event.t list;  (** oldest-first; the ring's surviving suffix *)
  dropped : int;
      (** events overwritten on ring overflow — non-zero means [events] is
          an incomplete (suffix-only) view of the run *)
  dropped_by_kind : (string * int) list;
      (** the overflow losses broken down per event kind (sorted by kind
          name; empty when [dropped = 0]) — the input for choosing
          per-kind sampling policies *)
}

val with_recording : ?capacity:int -> (unit -> 'a) -> 'a * recording
(** [with_recording f] runs [f] with tracing enabled into a fresh in-memory
    ring (default capacity 1,000,000 events) and returns [f ()]'s result
    together with the recorded events and the overflow drop count, restoring
    the previous tracer state afterwards (also on exceptions). *)

val with_file : file:string -> format:Tracebin.format -> (unit -> 'a) -> 'a
(** Run with tracing enabled into a trace file of the given format,
    restoring tracer state and closing the file afterwards. For
    [Tracebin.Bin] the header records {!run_meta} and the sampler's rates
    as of the first traced event. *)
