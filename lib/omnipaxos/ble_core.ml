(* Pure transition core of Ballot Leader Election (Figure 4 of the paper).
   No callbacks, no clocks, no mutation: one step maps a state and an input
   to a new state plus an ordered list of outputs, and the simnet adapter
   ([Ble]) interprets the outputs. Enforced by opxlint: every definition
   here is in the [pure_core] manifest (effects.facts) and carries [@pure],
   so an inferred write/io/ambient effect fails the build (rule E1). *)

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
  replies : (int * (Ballot.t * bool)) list;
}

type input = Tick | Deliver of { src : int; msg : msg }

type output =
  | Send of { dst : int; msg : msg }
  | Elected of { ballot : Ballot.t; first : bool }
  | Ballot_bumped of Ballot.t

let[@pure] make_config ~id ~peers ?(qc_signal = true)
    ?(connectivity_priority = false) () =
  let n_total = List.length peers + 1 in
  { id; peers; quorum = (n_total / 2) + 1; qc_signal; connectivity_priority }

let[@pure] init ?(priority = 0) ~ballot_n cfg =
  {
    ballot = { Ballot.n = ballot_n; priority; pid = cfg.id };
    leader = None;
    qc = false;
    round = 0;
    replies = [];
  }

let[@pure] leader_ballot s = Option.value s.leader ~default:Ballot.bottom

(* Insert keeping [replies] in descending source order with at most one
   entry per source. Heartbeat replies arrive in ascending source order, so
   the common insertion conses at the head instead of copying the list.
   [check_round] only takes maxima and counts, so the order is not
   observable. *)
let[@pure] set_reply (src : int) v replies =
  let rec go = function
    | [] -> [ (src, v) ]
    | ((k, _) as hd) :: tl ->
        if k > src then hd :: go tl
        else if k = src then (src, v) :: tl
        else (src, v) :: hd :: tl
  in
  go replies

(* The checkLeader step of Figure 4, run when a heartbeat round closes. *)
let[@pure] check_round cfg s =
  let reply_list = List.map snd s.replies in
  let connected = List.length reply_list + 1 in
  if connected >= cfg.quorum then begin
    let s = { s with qc = true } in
    (* Candidates are the QC servers heard from this round, plus self.
       Without the QC signal (ablation) every alive server is a candidate. *)
    let candidates =
      s.ballot
      :: List.filter_map
           (fun (b, qc) -> if qc || not cfg.qc_signal then Some b else None)
           reply_list
    in
    let max_candidate = List.fold_left Ballot.max Ballot.bottom candidates in
    let led = leader_ballot s in
    if Ballot.(max_candidate > led) then
      ( { s with leader = Some max_candidate },
        [ Elected { ballot = max_candidate; first = Option.is_none s.leader } ]
      )
    else if Ballot.(max_candidate < led) then begin
      (* The elected leader is dead or no longer quorum-connected: take over
         by bumping our ballot above every ballot seen (including the stale
         leader's), so we outrank it in the coming rounds. With the
         connectivity optimisation of §8, the priority field carries how
         many peers we currently hear, so the best-connected of the
         simultaneous candidates wins the tie at the same round number. *)
      let max_seen =
        List.fold_left (fun acc (b, _) -> Ballot.max acc b) led reply_list
      in
      let ballot = Ballot.bump_above s.ballot max_seen in
      let ballot =
        if cfg.connectivity_priority then
          { ballot with Ballot.priority = connected }
        else ballot
      in
      ({ s with ballot }, [ Ballot_bumped ballot ])
    end
    else (s, [])
  end
  else ({ s with qc = false }, [])

let[@pure] tick cfg s =
  (* The first round only propagates QC flags: electing before peers have
     reported their status would make every server elect itself. *)
  let s, outputs =
    if s.round >= 2 then check_round cfg s
    else if List.length s.replies + 1 >= cfg.quorum then
      ({ s with qc = true }, [])
    else (s, [])
  in
  let s = { s with replies = []; round = s.round + 1 } in
  let request = Hb_request { round = s.round } in
  (s, outputs @ List.map (fun peer -> Send { dst = peer; msg = request }) cfg.peers)

let[@pure] handle _cfg s ~src msg =
  match msg with
  | Hb_request { round } ->
      (s, [ Send { dst = src; msg = Hb_reply { round; ballot = s.ballot; qc = s.qc } } ])
  | Hb_reply { round; ballot; qc } ->
      if round = s.round then
        ({ s with replies = set_reply src (ballot, qc) s.replies }, [])
      else (s, [])

let[@pure] step cfg s input =
  match input with
  | Tick -> tick cfg s
  | Deliver { src; msg } -> handle cfg s ~src msg

let[@pure] msg_size = function Hb_request _ -> 12 | Hb_reply _ -> 29
