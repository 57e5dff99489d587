module Sp = Omnipaxos.Sequence_paxos
module Quorum = Replog.Quorum

type vr_msg =
  | Start_view_change of { view : int }
  | Do_view_change of { view : int }
  | Start_view of { view : int }
  | Ping of { view : int }

type msg = Vr of vr_msg | Sp of Sp.msg

type status = Normal | View_change

let status_is_normal = function Normal -> true | View_change -> false
let status_is_view_change = function View_change -> true | Normal -> false

type t = {
  id : int;
  peers : int list;
  n_total : int;
  election_ticks : int;
  heartbeat_ticks : int;
  send : dst:int -> msg -> unit;
  sp : Sp.t;
  mutable view : int;
  mutable status : status;
  mutable proposed_view : int;
  (* The members whose Start_view_change / Do_view_change for
     [proposed_view] we hold, self included once we sent ours. *)
  svc : Quorum.t;
  dvc : Quorum.t;
  mutable dvc_sent : bool;
  mutable ticks_since_ping : int;
  mutable vc_ticks : int;
  mutable tick_count : int;
  obs : Obs.Term_trace.t;
}

let leader_of t view = view mod t.n_total

(* Sequence Paxos rounds for view [v] use ballot (v + 1, leader pid), which
   is monotone in the view and unique per (view, leader). *)
let ballot_of t view =
  { Omnipaxos.Ballot.n = view + 1; priority = 0; pid = leader_of t view }

let create ~id ~peers ~election_ticks ?batching ?compaction ~send () =
  let sp =
    Sp.create ~id ~peers ~persistent:(Sp.fresh_persistent ()) ?batching
      ?compaction
      ~send:(fun ~dst m -> send ~dst (Sp m))
      ()
  in
  let n_total = List.length peers + 1 in
  let members = Quorum.members (id :: peers) in
  {
    id;
    peers;
    n_total;
    election_ticks;
    heartbeat_ticks = max 1 (election_ticks / 5);
    send;
    sp;
    view = 0;
    status = Normal;
    proposed_view = 0;
    svc = Quorum.create ~self:id members;
    dvc = Quorum.create members;
    dvc_sent = false;
    ticks_since_ping = 0;
    vc_ticks = 0;
    tick_count = 0;
    obs = Obs.Term_trace.create ();
  }

let broadcast t m = List.iter (fun p -> t.send ~dst:p (Vr m)) t.peers

let become_leader t view =
  t.view <- view;
  t.status <- Normal;
  t.ticks_since_ping <- 0;
  broadcast t (Start_view { view });
  Sp.handle_leader t.sp (ballot_of t view)

(* EQC: only a server that gathered Start_view_change from a quorum may vote
   (send Do_view_change) for the new leader. *)
let check_svc_quorum t =
  if
    status_is_view_change t.status
    && (not t.dvc_sent)
    && Quorum.reached t.svc
  then begin
    t.dvc_sent <- true;
    let lead = leader_of t t.proposed_view in
    if lead = t.id then begin
      Quorum.add t.dvc t.id;
      if Quorum.reached t.dvc then become_leader t t.proposed_view
    end
    else t.send ~dst:lead (Vr (Do_view_change { view = t.proposed_view }))
  end

let start_view_change t view =
  t.status <- View_change;
  t.proposed_view <- view;
  t.vc_ticks <- 0;
  Quorum.clear t.svc;
  Quorum.clear t.dvc;
  t.dvc_sent <- false;
  broadcast t (Start_view_change { view });
  check_svc_quorum t

let enter_view t view =
  t.view <- view;
  t.status <- Normal;
  t.ticks_since_ping <- 0

let on_vr t ~src msg =
  match msg with
  | Start_view_change { view } ->
      if view > t.view then begin
        if status_is_view_change t.status && view = t.proposed_view then begin
          Quorum.add t.svc src;
          check_svc_quorum t
        end
        else if status_is_normal t.status || view > t.proposed_view then begin
          (* Join (and forward) the higher view change. *)
          start_view_change t view;
          Quorum.add t.svc src;
          check_svc_quorum t
        end
      end
  | Do_view_change { view } ->
      if
        status_is_view_change t.status
        && view = t.proposed_view
        && leader_of t view = t.id
      then begin
        Quorum.add t.dvc src;
        (* Our own vote requires our own SVC quorum (EQC), recorded in
           [check_svc_quorum]. *)
        if Quorum.reached t.dvc && Quorum.mem t.dvc t.id then
          become_leader t view
      end
  | Start_view { view } -> if view > t.view then enter_view t view
  | Ping { view } ->
      if
        view >= t.view
        && (view > t.view || status_is_normal t.status
           || view >= t.proposed_view)
      then begin
        if view > t.view || status_is_view_change t.status then
          enter_view t view
        else t.ticks_since_ping <- 0
      end

let handle t ~src msg =
  match msg with
  | Vr m -> on_vr t ~src m
  | Sp m -> Sp.handle t.sp ~src m

let is_leader t = status_is_normal t.status && leader_of t t.view = t.id

let step_tick t =
  t.tick_count <- t.tick_count + 1;
  Sp.flush t.sp;
  if is_leader t then begin
    (* Make sure the Sequence Paxos role matches the view (also covers the
       initial view 0 at startup). *)
    if not (Sp.is_leader t.sp) then Sp.handle_leader t.sp (ballot_of t t.view);
    if t.tick_count mod t.heartbeat_ticks = 0 then
      broadcast t (Ping { view = t.view })
  end
  else
    match t.status with
    | Normal ->
        t.ticks_since_ping <- t.ticks_since_ping + 1;
        if t.ticks_since_ping >= t.election_ticks then
          start_view_change t (t.view + 1)
    | View_change ->
        t.vc_ticks <- t.vc_ticks + 1;
        if t.vc_ticks >= t.election_ticks then
          (* The candidate could not be elected: move to the next view in
             the round-robin order. *)
          start_view_change t (t.proposed_view + 1)

let session_reset t ~peer = Sp.session_reset t.sp ~peer
let propose t entry = Sp.propose t.sp entry
let status t = t.status
let view t = t.view

let leader_pid t =
  match t.status with Normal -> Some (leader_of t t.view) | View_change -> None

(* The embedded Sequence Paxos traces decides and installs itself; only
   leader/view transitions are traced here, once per tick, with the view as
   the term. *)
let tick t =
  step_tick t;
  Obs.Term_trace.note_leader t.obs ~node:t.id ~leader:(leader_pid t)
    ~term:t.view

let sequence_paxos t = t.sp

let msg_size = function
  | Vr (Start_view_change _ | Do_view_change _ | Start_view _ | Ping _) -> 17
  | Sp m -> Sp.msg_size m
