(* Raft behind the uniform protocol interface, in its two evaluated
   configurations: plain, and with PreVote + CheckQuorum ("Raft PV+CQ"). *)

module N = Raft.Node

module Core = struct
  type t = N.t
  type msg = N.msg
  type config = { pv_cq : bool }  (* PreVote and CheckQuorum together *)

  let name = "Raft"
  let layer = "raft"
  let default = { pv_cq = false }

  let create cfg ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
      () =
    N.create ~id ~voters:(id :: peers) ~pre_vote:cfg.pv_cq
      ~check_quorum:cfg.pv_cq ?batching ?compaction ~election_ticks ~rand
      ~persistent:(N.fresh_persistent ()) ~send ()

  let handle = N.handle
  let tick = N.tick
  let session_reset = N.session_reset

  (* Term, vote and log are Raft's persistent state (kept inside the node);
     [N.recover] resets the volatile role/leader/commit-index view, which is
     re-learned from the next leader's appends. *)
  let restart = N.recover
  let propose = N.propose
  let is_leader = N.is_leader
  let leader_pid = N.leader_pid
  let decided_index = N.commit_idx
  let msg_size = N.msg_size
  let store = N.store
end

module Plain = struct
  include Adapter.Make (Core)

  let node = core
end

module Pv_cq = struct
  include Plain
  let name = "Raft PV+CQ"
  let create = make { Core.pv_cq = true }
end
