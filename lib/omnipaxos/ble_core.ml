(* Pure decision core of Ballot Leader Election (Figure 4 of the paper).
   No callbacks, no clocks, no mutation: closing a round maps a state and
   the round's reply summary to a new state plus at most one decision, and
   the simnet adapter ([Ble]) keeps the replies, sends the heartbeats and
   interprets the decision. Enforced by opxlint: every definition here is
   in the [pure_core] manifest (effects.facts) and carries [@pure], so an
   inferred write/io/ambient effect fails the build (rule E1). *)

type msg =
  | Hb_request of { round : int }
  | Hb_reply of { round : int; ballot : Ballot.t; qc : bool }

type config = {
  id : int;
  peers : int list;
  quorum : int;
  qc_signal : bool;
  connectivity_priority : bool;
}

type state = {
  ballot : Ballot.t;
  leader : Ballot.t option;
  qc : bool;
  round : int;
}

type summary = { heard : int; max_qc : Ballot.t; max_seen : Ballot.t }

type output =
  | Elected of { ballot : Ballot.t; first : bool }
  | Ballot_bumped of Ballot.t

let[@pure] make_config ~id ~peers ?(qc_signal = true)
    ?(connectivity_priority = false) () =
  let quorum = Replog.Quorum.majority (List.length peers + 1) in
  { id; peers; quorum; qc_signal; connectivity_priority }

let[@pure] init ?(priority = 0) ~ballot_n cfg =
  {
    ballot = { Ballot.n = ballot_n; priority; pid = cfg.id };
    leader = None;
    qc = false;
    round = 0;
  }

let[@pure] leader_ballot s = Option.value s.leader ~default:Ballot.bottom

(* The checkLeader step of Figure 4, run when a heartbeat round closes. *)
let[@pure] check_round cfg s r =
  let connected = r.heard + 1 in
  if connected >= cfg.quorum then begin
    let s = if s.qc then s else { s with qc = true } in
    (* Candidates are the QC servers heard from this round, plus self.
       Without the QC signal (ablation) every alive server is a candidate. *)
    let max_candidate =
      Ballot.max s.ballot (if cfg.qc_signal then r.max_qc else r.max_seen)
    in
    let led = leader_ballot s in
    if Ballot.(max_candidate > led) then
      ( { s with leader = Some max_candidate },
        Some
          (Elected { ballot = max_candidate; first = Option.is_none s.leader })
      )
    else if Ballot.(max_candidate < led) then begin
      (* The elected leader is dead or no longer quorum-connected: take over
         by bumping our ballot above every ballot seen (including the stale
         leader's), so we outrank it in the coming rounds. With the
         connectivity optimisation of §8, the priority field carries how
         many peers we currently hear, so the best-connected of the
         simultaneous candidates wins the tie at the same round number. *)
      let ballot = Ballot.bump_above s.ballot (Ballot.max led r.max_seen) in
      let ballot =
        if cfg.connectivity_priority then
          { ballot with Ballot.priority = connected }
        else ballot
      in
      ({ s with ballot }, Some (Ballot_bumped ballot))
    end
    else (s, None)
  end
  else ((if s.qc then { s with qc = false } else s), None)

let[@pure] tick cfg s r =
  (* The first round only propagates QC flags: electing before peers have
     reported their status would make every server elect itself. *)
  let s, output =
    if s.round >= 2 then check_round cfg s r
    else if r.heard + 1 >= cfg.quorum then ({ s with qc = true }, None)
    else (s, None)
  in
  ({ s with round = s.round + 1 }, output)

let[@pure] msg_size = function Hb_request _ -> 12 | Hb_reply _ -> 29
