(** Viewstamped Replication leader election (Liskov & Cowling, 2012),
    paired with Omni-Paxos' Sequence Paxos for log replication — exactly the
    "VR" configuration of the paper's evaluation, which isolates the
    resilience of VR's view changes.

    Views are numbered rounds with a round-robin leader: view [v] is led by
    server [v mod n]. A server that suspects the leader broadcasts
    [Start_view_change (v+1)]; servers join a higher view change by
    forwarding it. Only a server that has gathered [Start_view_change]
    messages from a quorum sends [Do_view_change] to the new leader — VR's
    EQC requirement: a leader must be elected *by* quorum-connected servers.
    The new leader starts the view on a quorum of [Do_view_change], and log
    synchronisation is delegated to the Sequence Paxos Prepare phase. *)

type vr_msg =
  | Start_view_change of { view : int }
  | Do_view_change of { view : int }
  | Start_view of { view : int }
  | Ping of { view : int }

type msg = Vr of vr_msg | Sp of Omnipaxos.Sequence_paxos.msg

type status = Normal | View_change

type t

val create :
  id:int ->
  peers:int list ->
  election_ticks:int ->
  ?batching:Omnipaxos.Batching.config ->
  ?compaction:Omnipaxos.Compaction.config ->
  send:(dst:int -> msg -> unit) ->
  unit ->
  t
(** [batching] selects the flush policy of the inner Sequence Paxos
    instance (default {!Omnipaxos.Batching.fixed}); [compaction] (default
    {!Omnipaxos.Compaction.disabled}) its snapshot-and-trim trigger.
    Sequence Paxos applies the decided entries to its store and traces the decides and installs; the node traces leader
    transitions once per [tick], with the view as the term. *)

val handle : t -> src:int -> msg -> unit
val tick : t -> unit
val session_reset : t -> peer:int -> unit
val propose : t -> Omnipaxos.Entry.t -> bool
val status : t -> status
val view : t -> int
val is_leader : t -> bool
val leader_pid : t -> int option
val sequence_paxos : t -> Omnipaxos.Sequence_paxos.t
val msg_size : msg -> int
