(* Trace-driven invariant checkers. They consume the event stream a run
   recorded (in timestamp order, as the sinks received it) and either pass or
   return the first violation. Tests assert them over scenario runs; `opx
   trace` reports them over whole replays. Each checker is a per-event core
   over small mutable state, run by the streaming {!Monitor}; [check_all] is
   that monitor folded over a whole list. *)

type violation = { at : float; node : int; message : string }

let pp_violation ppf v =
  Format.fprintf ppf "t=%.3f node=%d: %s" v.at v.node v.message

let ballot_str (b : Event.ballot) =
  Printf.sprintf "(n=%d,prio=%d,pid=%d)" b.n b.prio b.pid

(* At most one server may act as leader (send Prepare or Accept) under any
   given ballot, and only the server the ballot belongs to. Two servers
   driving the same ballot is exactly the split-brain Sequence Paxos'
   SC-invariants rule out. *)
let check_ballot owners (e : Event.t) (b : Event.ballot) =
  if b.Event.pid <> e.node then
    Some
      {
        at = e.time;
        node = e.node;
        message =
          Printf.sprintf
            "node %d acted as leader with ballot %s owned by node %d" e.node
            (ballot_str b) b.Event.pid;
      }
  else
    match Hashtbl.find_opt owners b with
    | Some owner when owner <> e.node ->
        Some
          {
            at = e.time;
            node = e.node;
            message =
              Printf.sprintf "two leaders for ballot %s: nodes %d and %d"
                (ballot_str b) owner e.node;
          }
    | Some _ -> None
    | None ->
        Hashtbl.add owners b e.node;
        None

let leader_check owners (e : Event.t) =
  match e.kind with
  | Event.Prepare_round { b; _ } | Event.Accept_sent { b; _ } ->
      check_ballot owners e b
  (* Event-stream filter: a new event kind cannot weaken this invariant, it
     is simply not leadership-relevant. *)
  | _ [@lint.allow "D4"] -> None

(* Each server's decided index never moves backwards. Stable storage keeps
   the decided prefix across crashes, so this holds across recoveries too. *)
let decided_check last (e : Event.t) =
  match e.kind with
  | Event.Decided { decided_idx; _ } -> (
      match Hashtbl.find_opt last e.node with
      | Some (at, prev) when decided_idx < prev ->
          Some
            {
              at = e.time;
              node = e.node;
              message =
                Printf.sprintf
                  "decided index went backwards: %d (t=%.3f) -> %d" prev at
                  decided_idx;
            }
      | _ ->
          Hashtbl.replace last e.node (e.time, decided_idx);
          None)
  (* Event-stream filter: only [Decided] moves the decided index. *)
  | _ [@lint.allow "D4"] -> None

(* Feed events one at a time; each invariant latches its first violation
   (its state stops updating once latched). Memory is O(distinct ballots +
   nodes). *)
module Monitor = struct
  type t = {
    owners : (Event.ballot, int) Hashtbl.t;
    last : (int, float * int) Hashtbl.t;
    mutable leader_err : violation option;
    mutable decided_err : violation option;
  }

  let create () =
    {
      owners = Hashtbl.create 64;
      last = Hashtbl.create 16;
      leader_err = None;
      decided_err = None;
    }

  let observe t e =
    if Option.is_none t.leader_err then t.leader_err <- leader_check t.owners e;
    if Option.is_none t.decided_err then
      t.decided_err <- decided_check t.last e

  let to_result = function None -> Ok () | Some v -> Error v

  let results t =
    [
      ("single-leader-per-ballot", to_result t.leader_err);
      ("decided-prefix-monotonic", to_result t.decided_err);
    ]
end

let check_all events =
  let m = Monitor.create () in
  List.iter (Monitor.observe m) events;
  Monitor.results m
