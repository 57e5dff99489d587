(** The partial-connectivity scenarios of §2 of the paper, as link-matrix
    schedules over the simulated network. Each function applies its
    partition immediately; combine with [Simnet.Net.schedule] to stage them
    mid-run. *)

val quorum_loss : 'm Simnet.Net.t -> hub:int -> unit
(** Figure 1a: every server stays connected to [hub]; all other links are
    cut. The current leader (≠ [hub]) remains alive but loses
    quorum-connectivity. *)

val constrained : 'm Simnet.Net.t -> qc:int -> leader:int -> unit
(** Figure 1b: [leader] is fully partitioned and [qc] is the only
    quorum-connected server. Cut the [qc]–[leader] link some time earlier
    to make [qc]'s log outdated, as in the paper's experiment. *)

val chained : 'm Simnet.Net.t -> a:int -> b:int -> unit
(** Figure 1c: cut one link. With three servers this leaves the third as
    the middle of a chain. *)

val chain_of : 'm Simnet.Net.t -> order:int list -> unit
(** A full chain over [order]: only consecutive servers stay connected.
    With five or more servers no fully-connected server exists — the
    configuration in which the paper shows Raft and Multi-Paxos
    livelock. *)

val chain_from : 'm Simnet.Net.t -> leader:int -> unit
(** The chained scenario with [leader] at one end: {!chained} between
    [leader] and the lowest other server when there are three servers or
    fewer, else {!chain_of} over [leader] followed by the others in
    ascending order. *)

val heal : 'm Simnet.Net.t -> unit
(** Restore all links. *)
