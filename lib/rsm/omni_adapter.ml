(* Omni-Paxos behind the uniform protocol interface. *)

module R = Omnipaxos.Replica

(* Ablation variant: heartbeats carry no QC flag (the "QC status heartbeats"
   column of Table 1). Quorum-loss recovery is expected to fail. Omni-Paxos
   itself, at the end of this file, is this module with the flag on. *)
module No_qc_signal = struct
  type t = {
    mutable replica : R.t;
    build : unit -> R.t;
        (* rebuild on the same stable storage (fail-recovery restarts) *)
  }

  type msg = R.msg

  let name = "Omni (no QC flag)"

  (* Sequence Paxos applies decided entries to its store and emits its own
     trace events (decides, installs). *)
  let create_with ~qc_signal ?batching ?compaction ~id ~peers ~election_ticks
      ~rand:(_ : Random.State.t) ~send () =
    let storage = R.Storage.create () in
    let build () =
      R.create ~id ~peers ~qc_signal ~hb_ticks:election_ticks ?batching
        ?compaction ~storage ~send ()
    in
    { replica = build (); build }

  let create = create_with ~qc_signal:false

  let handle, tick =
    Protocol.framed ~layer:"omnipaxos"
      (fun c ~src msg -> R.handle c.replica ~src msg)
      (fun c -> R.tick c.replica)

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
  let decided_count c = Protocol.decided_count (R.store c.replica)
  let decided_ids c ~from = Protocol.decided_ids (R.store c.replica) ~from
  let decided_index c = R.decided_idx c.replica
  let last_install c = Protocol.last_install (R.store c.replica)
  let msg_size = R.msg_size
end

include No_qc_signal

let name = "Omni-Paxos"
let create = create_with ~qc_signal:true
