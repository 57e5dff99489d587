(* Effectful adapter around the pure BLE decision core ([Ble_core]). Owns
   the mutable current state, the open round's replies, the stable-storage
   ballot cell and the transport/election callbacks. A heartbeat costs no
   allocation: replies land in pid-indexed arrays, and a request is echoed
   with the one reply cached for its round. Each tick folds the replies
   into a [Ble_core.summary], runs [Ble_core.tick] and interprets its
   decision before sending the next round's request. This module is the
   sanctioned emission shim for BLE (allow_emit in effects.facts):
   everything that decides is in the core, everything that performs is
   here. *)

type msg = Ble_core.msg =
  | Hb_request of { round : int }
  | Hb_reply of { round : int; ballot : Ballot.t; qc : bool }

type persistent = { mutable ballot_n : int }

let fresh_persistent () = { ballot_n = 1 }

type t = {
  config : Ble_core.config;
  persistent : persistent;
  send : dst:int -> msg -> unit;
  on_leader : Ballot.t -> unit;
  mutable state : Ble_core.state;
  (* The members that replied in the open round, and each one's ballot and
     QC flag, indexed by pid. A later reply from the same source overwrites
     the earlier one. *)
  replied : Replog.Quorum.t;
  reply_ballot : Ballot.t array;
  reply_qc : bool array;
  (* The reply to a request, built once per requested round; [None] after
     a tick, which is the only place ballot and QC change. *)
  mutable reply : msg option;
}

let create ~id ~peers ?(priority = 0) ?(qc_signal = true)
    ?(connectivity_priority = false) ~persistent ~send ~on_leader () =
  let config =
    Ble_core.make_config ~id ~peers ~qc_signal ~connectivity_priority ()
  in
  let size = 1 + List.fold_left max id peers in
  {
    config;
    persistent;
    send;
    on_leader;
    state = Ble_core.init ~priority ~ballot_n:persistent.ballot_n config;
    replied = Replog.Quorum.create (Replog.Quorum.members (id :: peers));
    reply_ballot = Array.make size Ballot.bottom;
    reply_qc = Array.make size false;
    reply = None;
  }

let current_ballot t = t.state.Ble_core.ballot
let leader t = t.state.Ble_core.leader
let is_quorum_connected t = t.state.Ble_core.qc

(* One scan of the replies of the round closing now. *)
let summarise t =
  let max_qc = ref Ballot.bottom and max_seen = ref Ballot.bottom in
  for p = 0 to Array.length t.reply_ballot - 1 do
    if Replog.Quorum.mem t.replied p then begin
      let b = t.reply_ballot.(p) in
      max_seen := Ballot.max !max_seen b;
      if t.reply_qc.(p) then max_qc := Ballot.max !max_qc b
    end
  done;
  let heard = Replog.Quorum.count t.replied in
  { Ble_core.heard; max_qc = !max_qc; max_seen = !max_seen }

let apply_output t (o : Ble_core.output) =
  let node = t.config.Ble_core.id in
  match o with
  | Ble_core.Elected { ballot; first } ->
      if Obs.Trace.on () then
        Obs.Trace.emit ~node
          (if first then Obs.Event.Leader_elected (Ballot.to_event ballot)
           else Obs.Event.Leader_changed (Ballot.to_event ballot));
      t.on_leader ballot
  | Ble_core.Ballot_bumped ballot ->
      (* Persist before anything can observe the new ballot: LE3 requires
         ballot numbers monotone across crashes. *)
      t.persistent.ballot_n <- ballot.Ballot.n;
      if Obs.Trace.on () then
        Obs.Trace.emit ~node
          (Obs.Event.Ballot_increment (Ballot.to_event ballot))

let rec send_all send msg = function
  | [] -> ()
  | dst :: rest ->
      send ~dst msg;
      send_all send msg rest

let tick t =
  let state, output = Ble_core.tick t.config t.state (summarise t) in
  t.state <- state;
  Replog.Quorum.clear t.replied;
  t.reply <- None;
  (match output with Some o -> apply_output t o | None -> ());
  send_all t.send
    (Hb_request { round = state.Ble_core.round })
    t.config.Ble_core.peers

let reply_for t round =
  match t.reply with
  | Some (Hb_reply r as m) when r.round = round -> m
  | Some _ | None ->
      let s = t.state in
      let m =
        Hb_reply { round; ballot = s.Ble_core.ballot; qc = s.Ble_core.qc }
      in
      t.reply <- Some m;
      m

let handle t ~src msg =
  match msg with
  | Hb_request { round } -> t.send ~dst:src (reply_for t round)
  | Hb_reply { round; ballot; qc } ->
      if round = t.state.Ble_core.round then begin
        Replog.Quorum.add t.replied src;
        if Replog.Quorum.mem t.replied src then begin
          t.reply_ballot.(src) <- ballot;
          t.reply_qc.(src) <- qc
        end
      end

let msg_size = Ble_core.msg_size
