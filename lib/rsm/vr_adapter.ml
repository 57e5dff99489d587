(* VR leader election (+ Sequence Paxos log) behind the uniform protocol
   interface. *)

module N = Vr.Node
module Sp = Omnipaxos.Sequence_paxos

type t = N.t
type msg = N.msg

let name = "VR"

let create ?batching ?compaction ~id ~peers ~election_ticks ~rand:_ ~send () =
  N.create ~id ~peers ~election_ticks ?batching ?compaction ~send ()

let handle, tick = Protocol.framed ~layer:"vr" N.handle N.tick
let session_reset = N.session_reset

(* VR's node (view + embedded Sequence Paxos) has no injectable storage:
   like Multi-Paxos, crashes model synchronous full-state persistence. *)
let restart _ = ()
let propose t cmd = N.propose t (Omnipaxos.Entry.Cmd cmd)
let is_leader = N.is_leader
let leader_pid = N.leader_pid
let store t = Sp.store (N.sequence_paxos t)
let decided_count t = Protocol.decided_count (store t)
let decided_ids t ~from = Protocol.decided_ids (store t) ~from
let decided_index t = Sp.decided_idx (N.sequence_paxos t)
let last_install t = Protocol.last_install (store t)
let msg_size = N.msg_size
