type msg = Ble_msg of Ble.msg | Sp_msg of Sequence_paxos.msg

module Storage = struct
  type t = { ble : Ble.persistent; sp : Sequence_paxos.persistent }

  let create () =
    { ble = Ble.fresh_persistent (); sp = Sequence_paxos.fresh_persistent () }
end

type t = {
  ble : Ble.t;
  sp : Sequence_paxos.t;
  hb_ticks : int;
  mutable tick_count : int;
}

(* [wrap] with a one-entry memo on physical equality: a message sent to
   many peers (a heartbeat request or reply, a shared Accept or Decide) is
   boxed once, not once per peer. [init] only seeds the memo. *)
let memo_wrap wrap init =
  let last_in = ref init and last_out = ref (wrap init) in
  fun m ->
    if m != !last_in then begin
      last_in := m;
      last_out := wrap m
    end;
    !last_out

let create ~id ~peers ?qc_signal ?(hb_ticks = 10) ?batching ?compaction
    ~storage ~send ?on_decide () =
  let ble_msg = memo_wrap (fun m -> Ble_msg m) (Ble.Hb_request { round = 0 }) in
  let sp_msg = memo_wrap (fun m -> Sp_msg m) Sequence_paxos.Prepare_req in
  let sp =
    Sequence_paxos.create ~id ~peers ~persistent:storage.Storage.sp ?batching
      ?compaction
      ~send:(fun ~dst m -> send ~dst (sp_msg m))
      ?on_decide ()
  in
  let ble =
    Ble.create ~id ~peers ?qc_signal ~persistent:storage.Storage.ble
      ~send:(fun ~dst m -> send ~dst (ble_msg m))
      ~on_leader:(Sequence_paxos.handle_leader sp)
      ()
  in
  { ble; sp; hb_ticks; tick_count = 0 }

let handle t ~src msg =
  match msg with
  | Ble_msg m -> Ble.handle t.ble ~src m
  | Sp_msg m -> Sequence_paxos.handle t.sp ~src m

let tick t =
  t.tick_count <- t.tick_count + 1;
  if t.tick_count mod t.hb_ticks = 0 then begin
    Ble.tick t.ble;
    (* Re-deliver the current leader event: a leader whose Prepare phase was
       started before a partition keeps its round; followers re-learn it
       through BLE only when the ballot changes, so this is a no-op unless
       the ballot advanced. *)
    match Ble.leader t.ble with
    | Some b -> Sequence_paxos.handle_leader t.sp b
    | None -> ()
  end;
  (* The batcher's flush gets its own profiler frame (nested under the
     tick that drove it) — it is the hot-path cost the adaptive batching
     policy trades against latency. Cold branch repeats the call so the
     profiler-off path allocates no closure. *)
  if Obs.Profile.on () then
    Obs.Profile.wrap "batching/flush" (fun () -> Sequence_paxos.flush t.sp)
  else Sequence_paxos.flush t.sp

let session_reset t ~peer = Sequence_paxos.session_reset t.sp ~peer
let recover t = Sequence_paxos.recover t.sp
let propose t entry = Sequence_paxos.propose t.sp entry
let propose_cmd t cmd = propose t (Entry.Cmd cmd)

let propose_reconfigure t ~config_id ~nodes =
  let ok = propose t (Entry.Stop_sign { config_id; nodes; metadata = "" }) in
  if ok && Obs.Trace.on () then
    Obs.Trace.emit
      ~node:(Sequence_paxos.id t.sp)
      (Obs.Event.Reconfig { config_id; milestone = "stop-sign-proposed" });
  ok

let request_trim t ~upto = Sequence_paxos.request_trim t.sp ~upto
let first_idx t = Sequence_paxos.first_idx t.sp
let store t = Sequence_paxos.store t.sp
let is_leader t = Sequence_paxos.is_leader t.sp
let leader_pid t = Sequence_paxos.leader_pid t.sp
let decided_idx t = Sequence_paxos.decided_idx t.sp
let log_length t = Sequence_paxos.log_length t.sp
let read_decided t ~from = Sequence_paxos.read_decided t.sp ~from
let read_log t = Sequence_paxos.read_log t.sp
let stop_sign t = Sequence_paxos.stop_sign t.sp
let is_stopped t = Sequence_paxos.is_stopped t.sp
let sequence_paxos t = t.sp
let ble t = t.ble

let msg_size = function
  | Ble_msg m -> Ble.msg_size m
  | Sp_msg m -> Sequence_paxos.msg_size m
