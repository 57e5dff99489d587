(** Pure transition core of Ballot Leader Election (BLE, §5.2).

    [step config state input] is a total function returning the successor
    state and an ordered list of outputs; it performs no effects. The clock
    arrives as the [Tick] input (one per election timeout), sends leave as
    [Send] outputs, and election / takeover decisions leave as [Elected] /
    [Ballot_bumped] outputs for the adapter ([Ble]) to trace, persist and
    signal. Every definition is [@pure]-annotated and listed in the
    [pure_core] manifest of effects.facts: opxlint rule E1 fails the build
    if an inferred write, io or ambient effect creeps in. *)

type msg =
  | Hb_request of { round : int }
  | Hb_reply of { round : int; ballot : Ballot.t; qc : bool }

type config = {
  id : int;
  peers : int list;
  quorum : int;
  qc_signal : bool;
  connectivity_priority : bool;
}
(** [qc_signal] (default [true]) controls whether heartbeats carry the QC
    flag — disabling it is the ablation of Table 1's "QC status heartbeats"
    column. [connectivity_priority] (default [false]) enables the §8
    optimisation: a takeover ballot's priority field carries the number of
    peers currently heard. *)

type state = {
  ballot : Ballot.t;
  leader : Ballot.t option;
  qc : bool;  (** quorum-connected as of the last completed round *)
  round : int;
  replies : (int * (Ballot.t * bool)) list;
      (** replies of the open round: [(src, (ballot, qc))], in descending
          [src] order, at most one entry per source *)
}

type input = Tick | Deliver of { src : int; msg : msg }

type output =
  | Send of { dst : int; msg : msg }
  | Elected of { ballot : Ballot.t; first : bool }
      (** a new leader was elected; [first] distinguishes the initial
          election from a change *)
  | Ballot_bumped of Ballot.t
      (** takeover attempt: the new own ballot must be persisted before the
          next send (LE3 monotonicity across crashes) *)

val make_config :
  id:int ->
  peers:int list ->
  ?qc_signal:bool ->
  ?connectivity_priority:bool ->
  unit ->
  config

val init : ?priority:int -> ballot_n:int -> config -> state
(** [ballot_n] is the recovered persistent ballot number. *)

val check_round : config -> state -> state * output list
(** The checkLeader step of Figure 4, closing a heartbeat round. Exposed for
    direct property testing; [step] calls it from [Tick]. *)

val tick : config -> state -> state * output list
val handle : config -> state -> src:int -> msg -> state * output list

val step : config -> state -> input -> state * output list
(** [Tick] closes the round then broadcasts the next round's heartbeat
    requests; [Deliver] processes one incoming message. *)

val msg_size : msg -> int
