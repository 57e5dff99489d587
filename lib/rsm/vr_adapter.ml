(* VR leader election (+ Sequence Paxos log) behind the uniform protocol
   interface. *)

module N = Vr.Node

module Core = struct
  type t = { id : int; node : N.t; obs : Protocol.Obs_hooks.t }
  type msg = N.msg
  type config = unit

  let name = "VR"
  let layer = "vr"
  let default = ()

  (* The embedded Sequence Paxos emits the decide and install trace events
     itself, so the adapter's callbacks go straight in. *)
  let create () ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
      ~on_decide ~on_install () =
    ignore rand;
    let node =
      N.create ~id ~peers ~election_ticks ?batching ?compaction
        ~on_snapshot:on_install ~send ~on_decide ()
    in
    { id; node; obs = Protocol.Obs_hooks.create () }

  let handle c ~src msg = N.handle c.node ~src msg

  (* Only leader/view transitions are traced here, with the view as the
     term. *)
  let tick c =
    N.tick c.node;
    Protocol.Obs_hooks.note_leader c.obs ~node:c.id
      ~leader:(N.leader_pid c.node) ~term:(N.view c.node)

  let session_reset c ~peer = N.session_reset c.node ~peer

  (* VR's node (view + embedded Sequence Paxos) has no injectable storage:
     like Multi-Paxos, crashes model synchronous full-state persistence. *)
  let restart _c = ()
  let propose c cmd = N.propose c.node (Omnipaxos.Entry.Cmd cmd)
  let is_leader c = N.is_leader c.node
  let leader_pid c = N.leader_pid c.node

  let decided_index c =
    Omnipaxos.Sequence_paxos.decided_idx (N.sequence_paxos c.node)

  let msg_size = N.msg_size

  let iter_decided c ~from ~upto f =
    Adapter.iter_sp_decided (N.sequence_paxos c.node) ~from ~upto f
end

include Adapter.Make (Core)

let node t = (core t).Core.node
