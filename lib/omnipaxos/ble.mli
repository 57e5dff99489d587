(** Ballot Leader Election (BLE), §5.2 of the paper.

    Servers exchange heartbeats in rounds of one election timeout each. A
    heartbeat reply carries the sender's current ballot and a
    quorum-connected (QC) flag. At the end of each round a server that
    received a majority of replies (i.e. is itself QC) elects the
    QC server with the highest ballot. If the previously elected leader is
    no longer a QC candidate, QC servers bump their own ballot above every
    ballot seen, attempting to take over.

    Satisfies LE1 (QC-completeness), LE2 (QC-eventual agreement) and LE3
    (monotonically increasing unique ballots); see the test-suite properties.

    The module is transport-agnostic: it emits messages through the [send]
    callback and is driven by [tick] (one call = one heartbeat round).

    All election logic lives in the pure decision core [Ble_core]; this
    module is the effectful adapter that owns the mutable state and the
    round's reply table, sends the heartbeats, interprets the core's
    decisions (traces, persistence, the [on_leader] signal) and keeps the
    historical callback API for the simnet harness. In steady state a
    heartbeat allocates nothing, and a round sends one shared request
    value to every peer. *)

type msg = Ble_core.msg =
  | Hb_request of { round : int }
  | Hb_reply of { round : int; ballot : Ballot.t; qc : bool }

type persistent = { mutable ballot_n : int }
(** Ballot numbers must be monotone across crashes for LE3; this cell lives
    in the server's stable storage. *)

type t

val fresh_persistent : unit -> persistent

val create :
  id:int ->
  peers:int list ->
  ?priority:int ->
  ?qc_signal:bool ->
  ?connectivity_priority:bool ->
  persistent:persistent ->
  send:(dst:int -> msg -> unit) ->
  on_leader:(Ballot.t -> unit) ->
  unit ->
  t
(** [qc_signal] (default [true]) controls whether heartbeats carry the QC
    flag. Disabling it is the ablation of Table 1's "QC status heartbeats"
    column: servers then treat every reply as coming from a candidate, and
    quorum-loss recovery is lost.

    [connectivity_priority] (default [false]) enables the §8 optimisation:
    a server taking over leadership stamps its ballot's priority with the
    number of peers it currently hears, so the best-connected simultaneous
    candidate wins ties. Liveness is unaffected — candidates must still be
    quorum-connected. *)

val tick : t -> unit
(** Close the current heartbeat round (evaluate [checkLeader]) and start the
    next one. Call once per election timeout. *)

val handle : t -> src:int -> msg -> unit
(** A request is answered with our ballot and QC flag. A reply counts
    toward the open round only if it carries that round and comes from one
    of [peers]; the latest such reply from a source wins. *)

val current_ballot : t -> Ballot.t
val leader : t -> Ballot.t option
val is_quorum_connected : t -> bool
(** Result of the last completed round. *)

val msg_size : msg -> int
