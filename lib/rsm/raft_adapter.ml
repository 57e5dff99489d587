(* Raft behind the uniform protocol interface, in its two evaluated
   configurations: plain, and with PreVote + CheckQuorum ("Raft PV+CQ"). *)

module N = Raft.Node

module Plain = struct
  type t = N.t
  type msg = N.msg

  let name = "Raft"

  (* [pv_cq]: PreVote and CheckQuorum together. *)
  let create_with ~pv_cq ?batching ?compaction ~id ~peers ~election_ticks
      ~rand ~send () =
    N.create ~id ~voters:(id :: peers) ~pre_vote:pv_cq ~check_quorum:pv_cq
      ?batching ?compaction ~election_ticks ~rand
      ~persistent:(N.fresh_persistent ()) ~send ()

  let create = create_with ~pv_cq:false
  let handle, tick = Protocol.framed ~layer:"raft" N.handle N.tick
  let session_reset = N.session_reset

  (* Term, vote and log are Raft's persistent state (kept inside the node);
     [N.recover] resets the volatile role/leader/commit-index view, which is
     re-learned from the next leader's appends. *)
  let restart = N.recover
  let propose = N.propose
  let is_leader = N.is_leader
  let leader_pid = N.leader_pid
  let decided_count t = Protocol.decided_count (N.store t)
  let decided_ids t ~from = Protocol.decided_ids (N.store t) ~from
  let decided_index = N.commit_idx
  let last_install t = Protocol.last_install (N.store t)
  let msg_size = N.msg_size
end

module Pv_cq = struct
  include Plain

  let name = "Raft PV+CQ"
  let create = create_with ~pv_cq:true
end
