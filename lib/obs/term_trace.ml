(* Leader and decide trace events for the cores whose rounds are terms or
   views (Raft, Multi-Paxos, VR): a term maps onto a trace ballot as
   (term, 0, leader). [note_leader] is called from a core's [tick] and emits
   Leader_elected/Leader_changed on transitions; [note_decided] reports
   decided-index advances. Everything is behind the [Trace.on] guard, so it
   costs one branch when tracing is off. *)

type t = { mutable last_leader : (int * int) option (* (pid, term) *) }

let create () = { last_leader = None }

let note_leader s ~node ~leader ~term =
  if Trace.on () then
    match leader with
    | None -> ()
    | Some pid ->
        let same =
          match s.last_leader with
          | Some (p, t) -> Int.equal p pid && Int.equal t term
          | None -> false
        in
        if not same then begin
          let first = Option.is_none s.last_leader in
          s.last_leader <- Some (pid, term);
          let b = { Event.n = term; prio = 0; pid } in
          Trace.emit ~node
            (if first then Event.Leader_elected b else Event.Leader_changed b)
        end

let note_decided ~node ~term ~leader ~decided_idx =
  if Trace.on () then
    let b =
      { Event.n = term; prio = 0; pid = Option.value leader ~default:(-1) }
    in
    Trace.emit ~node (Event.Decided { b; decided_idx })
