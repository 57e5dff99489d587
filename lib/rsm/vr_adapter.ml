(* VR leader election (+ Sequence Paxos log) behind the uniform protocol
   interface. *)

module N = Vr.Node

module Core = struct
  type t = N.t
  type msg = N.msg
  type config = unit

  let name = "VR"
  let layer = "vr"
  let default = ()

  let create () ?batching ?compaction ~id ~peers ~election_ticks ~rand:_ ~send
      () =
    N.create ~id ~peers ~election_ticks ?batching ?compaction ~send ()

  let handle = N.handle
  let tick = N.tick
  let session_reset = N.session_reset

  (* VR's node (view + embedded Sequence Paxos) has no injectable storage:
     like Multi-Paxos, crashes model synchronous full-state persistence. *)
  let restart _c = ()
  let propose c cmd = N.propose c (Omnipaxos.Entry.Cmd cmd)
  let is_leader = N.is_leader
  let leader_pid = N.leader_pid

  let decided_index c =
    Omnipaxos.Sequence_paxos.decided_idx (N.sequence_paxos c)

  let msg_size = N.msg_size
  let store c = Omnipaxos.Sequence_paxos.store (N.sequence_paxos c)
end

include Adapter.Make (Core)

let node = core
