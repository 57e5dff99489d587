(* Multi-Paxos behind the uniform protocol interface. *)

module N = Multipaxos.Node

module Core = struct
  type t = N.t
  type msg = N.msg
  type config = unit

  let name = "Multi-Paxos"
  let layer = "multipaxos"
  let default = ()

  let create () ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
      () =
    N.create ~id ~peers ~election_ticks ~rand ?batching ?compaction ~send ()

  let handle = N.handle
  let tick = N.tick
  let session_reset = N.session_reset

  (* Multi-Paxos exposes no storage abstraction: model synchronous full-state
     persistence — a crash is a pause plus lost in-flight traffic, not an
     amnesia restart (which would forget Phase-1 promises and break safety). *)
  let restart _c = ()
  let propose = N.propose
  let is_leader = N.is_leader
  let leader_pid = N.leader_pid
  let decided_index = N.decided_length
  let msg_size = N.msg_size
  let store = N.store
end

include Adapter.Make (Core)

let node = core
