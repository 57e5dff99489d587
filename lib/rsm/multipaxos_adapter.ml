(* Multi-Paxos behind the uniform protocol interface. *)

module N = Multipaxos.Node

type t = N.t
type msg = N.msg

let name = "Multi-Paxos"

let create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send () =
  N.create ~id ~peers ~election_ticks ~rand ?batching ?compaction ~send ()

let handle, tick = Protocol.framed ~layer:"multipaxos" N.handle N.tick
let session_reset = N.session_reset

(* Multi-Paxos exposes no storage abstraction: model synchronous full-state
   persistence — a crash is a pause plus lost in-flight traffic, not an
   amnesia restart (which would forget Phase-1 promises and break safety). *)
let restart _ = ()
let propose = N.propose
let is_leader = N.is_leader
let leader_pid = N.leader_pid
let decided_count t = Protocol.decided_count (N.store t)
let decided_ids t ~from = Protocol.decided_ids (N.store t) ~from
let decided_index = N.decided_length
let last_install t = Protocol.last_install (N.store t)
let msg_size = N.msg_size
