(* Omni-Paxos behind the uniform protocol interface. *)

module R = Omnipaxos.Replica

module Core = struct
  type t = {
    mutable replica : R.t;
    build : unit -> R.t;
        (* rebuild on the same stable storage (fail-recovery restarts) *)
  }

  type msg = R.msg
  type config = { qc_signal : bool }

  let name = "Omni-Paxos"
  let layer = "omnipaxos"
  let default = { qc_signal = true }

  (* Sequence Paxos applies decided entries to its store and emits its own
     trace events (decides, installs). *)
  let create cfg ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send
      () =
    ignore rand;
    let storage = R.Storage.create () in
    let build () =
      R.create ~id ~peers ~qc_signal:cfg.qc_signal ~hb_ticks:election_ticks
        ?batching ?compaction ~storage ~send ()
    in
    { replica = build (); build }

  let handle c ~src msg = R.handle c.replica ~src msg
  let tick c = R.tick c.replica
  let session_reset c ~peer = R.session_reset c.replica ~peer

  (* Fail-recovery: volatile state is lost, the replica is rebuilt on its old
     storage and runs the recovery protocol. The store lives in the storage,
     so the applied prefix, the decided-id cache and the install record
     survive the rebuild. *)
  let restart c =
    c.replica <- c.build ();
    R.recover c.replica

  let propose c cmd = R.propose_cmd c.replica cmd
  let is_leader c = R.is_leader c.replica
  let leader_pid c = R.leader_pid c.replica
  let decided_index c = R.decided_idx c.replica
  let msg_size = R.msg_size
  let store c = R.store c.replica
end

module Base = Adapter.Make (Core)
include Base

(* Ablation variant: heartbeats carry no QC flag (the "QC status heartbeats"
   column of Table 1). Quorum-loss recovery is expected to fail. *)
module No_qc_signal = struct
  include Base
  let name = "Omni (no QC flag)"
  let create = make { Core.qc_signal = false }
end
