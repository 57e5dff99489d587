(** Pure decision core of Ballot Leader Election (BLE, §5.2).

    [tick config state summary] closes a heartbeat round: it is a total
    function returning the successor state and at most one decision, and it
    performs no effects. The adapter ([Ble]) keeps the round's replies and
    hands the core only their [summary]; it also sends the heartbeats, and
    it traces, persists and signals the [Elected] / [Ballot_bumped]
    decisions. Every definition is [@pure]-annotated and listed in the
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
  round : int;  (** the open round; only replies stamped with it count *)
}

type summary = {
  heard : int;  (** distinct peers that replied in the open round *)
  max_qc : Ballot.t;
      (** highest ballot among those replies flagged QC, [Ballot.bottom]
          if none *)
  max_seen : Ballot.t;
      (** highest ballot among all those replies, [Ballot.bottom] if none *)
}
(** What checkLeader needs to know of one round's replies. *)

type output =
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

val check_round : config -> state -> summary -> state * output option
(** The checkLeader step of Figure 4 over the closing round's replies.
    Exposed for direct property testing; [tick] calls it from round 2 on. *)

val tick : config -> state -> summary -> state * output option
(** Close the open round and open the next one. The first two rounds only
    propagate QC flags. *)

val msg_size : msg -> int
