module Log = Replog.Log
module Command = Replog.Command
module Quorum = Replog.Quorum
module Store = Omnipaxos.Compaction.Store

type ballot = { n : int; pid : int }

let bottom = { n = 0; pid = -1 }

let ballot_compare a b =
  let c = Int.compare a.n b.n in
  if c <> 0 then c else Int.compare a.pid b.pid

let ballot_max a b = if ballot_compare a b >= 0 then a else b

type msg =
  | Heartbeat
  | P1a of { b : ballot; from_slot : int }
  | P1b of { b : ballot; accepted : (int * ballot * Command.t) list }
  | P2a of { b : ballot; start_slot : int; cmds : Command.t list }
  | P2b of { b : ballot; start_slot : int; count : int }
  | Preempted of { b : ballot }
  | Decided_watermark of { b : ballot; upto : int }
  | Decision of { start_slot : int; cmds : Command.t list }
  | Decision_req of { from : int }
  | Snapshot of { idx : int; payload : string }

type state = Passive | Scouting | Active

let state_is_active = function Active -> true | Passive | Scouting -> false
let state_is_scouting = function Scouting -> true | Passive | Active -> false
let state_is_passive = function Passive -> true | Scouting | Active -> false

(* Whom the failure detector watches. It is only ever an *activated* leader
   (learned from its Phase-2 traffic) or ourselves; a mere preemptor is never
   adopted. This distinction is what separates the quorum-loss deadlock (the
   watched stale leader stays alive) from the recoverable scenarios. *)
type fd_target = No_leader | Myself | Activated of int

type t = {
  id : int;
  peers : int list;
  members : Quorum.members;  (* [id :: peers] *)
  election_ticks : int;
  heartbeat_ticks : int;
  rand : Random.State.t;
  send : dst:int -> msg -> unit;
  mutable tick_count : int;
  (* Tick of the last message from each pid in [0, 1 + max (id :: peers));
     -1 = never heard. *)
  last_heard : int array;
  (* Acceptor state: a window over the slots [acc_trim, acc_end), ring
     position [slot land (capacity - 1)]. Slots below [acc_trim] were
     decided; [bottom] marks a slot with nothing accepted. *)
  mutable prom : ballot;
  mutable acc_trim : int;
  mutable acc_end : int;
  mutable acc_ballot : ballot array;
  mutable acc_cmd : Command.t array;
  (* Proposer state. *)
  mutable state : state;
  mutable ballot : ballot;
  mutable max_seen : ballot;
  mutable fd_leader : fd_target;
  (* The scout's Phase-1 quorum (self included) and each member's P1b
     payload, indexed by pid. *)
  scouted : Quorum.t;
  p1b : (int * ballot * Command.t) list array;
  mutable scout_ticks : int;
  mutable backoff : int;
  (* The active leader's in-flight proposals: a window over the slots
     [w_base, next_slot), ring position [slot land (capacity - 1)], holding
     each slot's command, the acceptors that acked it (self included, as a
     [Quorum.mask_add] set), committed flag and the tick it was last sent.
     Restarted at the decided prefix on activation and popped at the front
     as the prefix advances. [pending_from] is the first slot not yet
     shipped in a P2a. *)
  mutable w_base : int;
  mutable w_cmd : Command.t array;
  mutable w_acks : int array;
  mutable w_committed : bool array;
  mutable w_born : int array;
  mutable next_slot : int;
  mutable pending_from : int;
  (* Derived from the shared [Batching.config]: [max_batch] caps commands
     per P2a; [eager_batch] is 0 (flush only on tick) or the adaptive
     [min_batch]. *)
  max_batch : int;
  eager_batch : int;
  (* Learner state. *)
  decided : Command.t Log.t;
  (* [store] is the applied state of the whole decided prefix; slots below
     the trim point survive only there. *)
  compaction : Omnipaxos.Compaction.config;
  store : Store.t;
  obs : Obs.Term_trace.t;
}

let noop_id = -1

(* Decided values reported in a P1b carry a sentinel ballot so they always
   win the max-ballot adoption; this is safe because a slot's decided value
   is unique and any conflicting accepted value has a lower ballot than the
   deciding one. *)
let decided_ballot pid = { n = max_int; pid }

let window_capacity = 64

let create ~id ~peers ~election_ticks ~rand
    ?(batching = Omnipaxos.Batching.fixed)
    ?(compaction = Omnipaxos.Compaction.disabled) ~send () =
  let members = Quorum.members (id :: peers) in
  let width = 1 + List.fold_left max id peers in
  let filler = Command.noop noop_id in
  let b = Omnipaxos.Batching.validated batching in
  {
    id;
    peers;
    members;
    election_ticks;
    heartbeat_ticks = max 1 (election_ticks / 5);
    rand;
    send;
    tick_count = 0;
    last_heard = Array.make width (-1);
    prom = bottom;
    acc_trim = 0;
    acc_end = 0;
    acc_ballot = Array.make window_capacity bottom;
    acc_cmd = Array.make window_capacity filler;
    state = Passive;
    ballot = { n = 0; pid = id };
    max_seen = bottom;
    fd_leader = No_leader;
    scouted = Quorum.create ~self:id members;
    p1b = Array.make width [];
    scout_ticks = 0;
    backoff = Random.State.int rand (election_ticks + 1);
    w_base = 0;
    w_cmd = Array.make window_capacity filler;
    w_acks = Array.make window_capacity 0;
    w_committed = Array.make window_capacity false;
    w_born = Array.make window_capacity 0;
    next_slot = 0;
    pending_from = 0;
    max_batch = b.max_batch;
    eager_batch = (if b.adaptive then b.min_batch else 0);
    decided = Log.create ();
    compaction = Omnipaxos.Compaction.validated compaction;
    store = Store.create ();
    obs = Obs.Term_trace.create ();
  }

let alive t p =
  p >= 0
  && p < Array.length t.last_heard
  && t.last_heard.(p) >= 0
  && t.tick_count - t.last_heard.(p) < t.election_ticks

(* Ring position of [slot] in a window whose arrays have [cap] cells. *)
let pos cap slot = slot land (cap - 1)

(* Double the accepted window, keeping [acc_trim, acc_end) at their slots. *)
let grow_accepted t =
  let cap = Array.length t.acc_ballot in
  let ballots = Array.make (2 * cap) bottom in
  let cmds = Array.make (2 * cap) t.acc_cmd.(0) in
  for s = t.acc_trim to t.acc_end - 1 do
    ballots.(pos (2 * cap) s) <- t.acc_ballot.(pos cap s);
    cmds.(pos (2 * cap) s) <- t.acc_cmd.(pos cap s)
  done;
  t.acc_ballot <- ballots;
  t.acc_cmd <- cmds

(* Accept [cmd] at [slot] under [b]. Slots below [acc_trim] are decided and
   never read again, so a late write there is dropped. *)
let accept t slot b cmd =
  if slot >= t.acc_trim then begin
    if slot >= t.acc_end then begin
      while slot - t.acc_trim >= Array.length t.acc_ballot do
        grow_accepted t
      done;
      let cap = Array.length t.acc_ballot in
      for s = t.acc_end to slot - 1 do
        t.acc_ballot.(pos cap s) <- bottom
      done;
      t.acc_end <- slot + 1
    end;
    let i = pos (Array.length t.acc_ballot) slot in
    t.acc_ballot.(i) <- b;
    t.acc_cmd.(i) <- cmd
  end

let rec accept_list t b slot = function
  | [] -> ()
  | cmd :: rest ->
      accept t slot b cmd;
      accept_list t b (slot + 1) rest

(* The ballot [slot] was accepted under, [bottom] if none. *)
let accepted_ballot t slot =
  if slot >= t.acc_trim && slot < t.acc_end then
    t.acc_ballot.(pos (Array.length t.acc_ballot) slot)
  else bottom

(* Both windows start at the decided prefix: accepted slots below it are
   never read again, and a proposal below it is already decided. *)
let trim_below_decided t =
  let len = Log.length t.decided in
  if t.acc_trim < len then begin
    t.acc_trim <- len;
    if t.acc_end < len then t.acc_end <- len
  end;
  if t.w_base < len then t.w_base <- min len t.next_slot

(* Purely local: every server compacts below its own decided watermark,
   and stragglers that later ask for discarded slots get the snapshot
   instead. *)
let maybe_compact t =
  Store.trim t.store t.decided ~node:t.id ~taken:true
    ~upto:
      (Omnipaxos.Compaction.trim_point t.compaction
         ~floor:(Log.first_idx t.decided) ~decided:(Log.length t.decided))

let leader_pid t =
  match t.fd_leader with
  | Myself -> if state_is_active t.state then Some t.id else None
  | Activated l -> Some l
  | No_leader -> None

(* The snapshot covers the whole decided prefix. *)
let send_snapshot t ~dst =
  t.send ~dst
    (let idx = Store.applied t.store in
     Snapshot { idx; payload = Store.encode t.store ~idx })

(* Every decided-prefix advance applies the new slots to the store and
   reports the new length to the trace, with the ballot round as term. *)
let decided t =
  let upto = Log.length t.decided in
  Store.apply t.store t.decided ~upto (fun _ c -> c) ();
  Obs.Term_trace.note_decided ~node:t.id ~term:t.ballot.n
    ~leader:(leader_pid t) ~decided_idx:upto

(* Followers hold the decided values in their accepted slots already, so the
   leader only broadcasts a watermark; full values are re-sent on demand
   ([Decision_req]) when a follower's accepted ballot does not match. *)
let broadcast_decisions t =
  let m = Decided_watermark { b = t.ballot; upto = Log.length t.decided } in
  List.iter (fun p -> t.send ~dst:p m) t.peers

(* Pop the committed front of the window into the decided log. The front
   is the next decided slot unless the prefix was learned past the window
   (then nothing here can extend it). *)
let advance_decided_prefix t =
  let start = Log.length t.decided in
  if t.w_base = start then begin
    let cap = Array.length t.w_cmd in
    while t.w_base < t.next_slot && t.w_committed.(pos cap t.w_base) do
      Log.append t.decided t.w_cmd.(pos cap t.w_base);
      t.w_base <- t.w_base + 1
    done
  end;
  if Log.length t.decided > start then begin
    trim_below_decided t;
    decided t;
    broadcast_decisions t;
    maybe_compact t
  end

(* Marks the slot at ring position [i] committed; the caller advances the
   decided prefix once per batch (advancing per slot would broadcast one
   watermark per entry). *)
let try_commit_slot t i =
  if (not t.w_committed.(i)) && Quorum.mask_reached t.members t.w_acks.(i)
  then
    t.w_committed.(i) <- true

(* The window's commands at [from, from + count), in slot order. *)
let window_cmds t ~from ~count =
  let cap = Array.length t.w_cmd in
  let cmds = ref [] in
  for s = from + count - 1 downto from do
    cmds := t.w_cmd.(pos cap s) :: !cmds
  done;
  !cmds

(* Cap on commands per P2a is [t.max_batch]; a large backlog streams across
   flushes. Every peer gets the same message. *)
let flush_p2a t =
  let from = max t.pending_from t.w_base in
  if state_is_active t.state && from < t.next_slot then begin
    let count = min t.max_batch (t.next_slot - from) in
    let m =
      P2a { b = t.ballot; start_slot = from; cmds = window_cmds t ~from ~count }
    in
    List.iter (fun p -> t.send ~dst:p m) t.peers;
    t.pending_from <- from + count
  end

(* Double the proposal window, keeping [w_base, next_slot) at their slots. *)
let grow_window t =
  let cap = Array.length t.w_cmd in
  let cmds = Array.make (2 * cap) t.w_cmd.(0) in
  let acks = Array.make (2 * cap) 0 in
  let committed = Array.make (2 * cap) false in
  let born = Array.make (2 * cap) 0 in
  for s = t.w_base to t.next_slot - 1 do
    let i = pos cap s and j = pos (2 * cap) s in
    cmds.(j) <- t.w_cmd.(i);
    acks.(j) <- t.w_acks.(i);
    committed.(j) <- t.w_committed.(i);
    born.(j) <- t.w_born.(i)
  done;
  t.w_cmd <- cmds;
  t.w_acks <- acks;
  t.w_committed <- committed;
  t.w_born <- born

let propose_in_slot t cmd =
  let slot = t.next_slot in
  if slot - t.w_base = Array.length t.w_cmd then grow_window t;
  let i = pos (Array.length t.w_cmd) slot in
  t.w_cmd.(i) <- cmd;
  t.w_acks.(i) <- Quorum.mask_add t.members 0 t.id;
  t.w_committed.(i) <- false;
  t.w_born.(i) <- t.tick_count;
  t.next_slot <- slot + 1;
  accept t slot t.ballot cmd;
  try_commit_slot t i;
  if Quorum.quorum t.members = 1 then advance_decided_prefix t

let propose t cmd =
  if state_is_active t.state then begin
    propose_in_slot t cmd;
    (* Mirror of the Omni-Paxos adaptive-batching eager flush: once the
       pending burst reaches [eager_batch], ship it now rather than waiting
       for the next tick. *)
    if t.eager_batch > 0 && t.next_slot - t.pending_from >= t.eager_batch then
      flush_p2a t;
    if Obs.Trace.on_kind Obs.Event.proposed_tag then
      Obs.Trace.emit ~node:t.id
        (Obs.Event.Proposed
           { log_idx = t.next_slot - 1; cmd_id = cmd.Command.id });
    true
  end
  else false

let become_active t =
  t.state <- Active;
  t.fd_leader <- Myself;
  (* Adopt the max-ballot accepted value per slot above our decided prefix;
     fill holes with internal no-ops. *)
  let from_slot = Log.length t.decided in
  let best = Hashtbl.create 64 in
  let max_slot = ref (from_slot - 1) in
  Quorum.iter
    (fun src ->
      List.iter
        (fun (slot, b, cmd) ->
          if slot >= from_slot then begin
            if slot > !max_slot then max_slot := slot;
            match Hashtbl.find_opt best slot with
            | Some (b', _) when ballot_compare b' b >= 0 -> ()
            | Some _ | None -> Hashtbl.replace best slot (b, cmd)
          end)
        t.p1b.(src))
    t.scouted;
  t.w_base <- from_slot;
  t.next_slot <- from_slot;
  t.pending_from <- from_slot;
  for slot = from_slot to !max_slot do
    let cmd =
      match Hashtbl.find_opt best slot with
      | Some (_, cmd) -> cmd
      | None -> Command.noop noop_id
    in
    propose_in_slot t cmd
  done;
  flush_p2a t;
  let announce = P2a { b = t.ballot; start_slot = t.next_slot; cmds = [] } in
  List.iter (fun p -> t.send ~dst:p announce) t.peers

let check_scout_quorum t =
  if state_is_scouting t.state && Quorum.reached t.scouted then
    become_active t

let own_accepted_from t from_slot =
  let acc = ref [] in
  for slot = t.acc_end - 1 downto max from_slot t.acc_trim do
    let b = accepted_ballot t slot in
    if ballot_compare b bottom <> 0 then
      acc := (slot, b, t.acc_cmd.(pos (Array.length t.acc_cmd) slot)) :: !acc
  done;
  !acc

(* Decided slots may have been trimmed from [accepted]; report them with the
   sentinel ballot. Slots below the trim point live only in the snapshot,
   which the caller ships separately — clamp to what the log still holds. *)
let p1b_payload t from_slot =
  let from_slot = max from_slot (Log.first_idx t.decided) in
  let decided_part =
    let len = Log.length t.decided in
    if from_slot >= len then []
    else
      List.mapi
        (fun i cmd -> (from_slot + i, decided_ballot t.id, cmd))
        (Log.suffix t.decided ~from:from_slot)
  in
  decided_part @ own_accepted_from t (max from_slot (Log.length t.decided))

let start_scout t =
  t.state <- Scouting;
  t.scout_ticks <- 0;
  t.fd_leader <- Myself;
  Quorum.clear t.scouted;
  t.ballot <- { n = t.max_seen.n + 1; pid = t.id };
  t.max_seen <- t.ballot;
  if ballot_compare t.ballot t.prom > 0 then t.prom <- t.ballot;
  let from_slot = Log.length t.decided in
  t.p1b.(t.id) <- p1b_payload t from_slot;
  List.iter
    (fun p -> t.send ~dst:p (P1a { b = t.ballot; from_slot }))
    t.peers;
  check_scout_quorum t

let on_p1a t ~src ~b ~from_slot =
  if ballot_compare b t.prom > 0 then begin
    t.prom <- b;
    t.max_seen <- ballot_max t.max_seen b;
    (* A scout below our trim point cannot learn those decided slots from
       the P1b; ship the snapshot first so it catches up before adopting. *)
    if from_slot < Log.first_idx t.decided then send_snapshot t ~dst:src;
    t.send ~dst:src (P1b { b; accepted = p1b_payload t from_slot })
  end
  else t.send ~dst:src (Preempted { b = t.prom })

let on_p1b t ~src ~b ~accepted =
  if state_is_scouting t.state && ballot_compare b t.ballot = 0 then begin
    Quorum.add t.scouted src;
    if Quorum.mem t.scouted src then t.p1b.(src) <- accepted;
    check_scout_quorum t
  end

let on_p2a t ~src ~b ~start_slot ~cmds =
  if ballot_compare b t.prom >= 0 then begin
    t.prom <- b;
    t.max_seen <- ballot_max t.max_seen b;
    (* Phase-2 traffic identifies the active leader: adopt it and abandon
       any competing proposer role. *)
    if b.pid <> t.id then begin
      t.fd_leader <- Activated b.pid;
      if not (state_is_passive t.state) then t.state <- Passive
    end;
    accept_list t b start_slot cmds;
    if not (List.is_empty cmds) then
      t.send ~dst:src (P2b { b; start_slot; count = List.length cmds })
  end
  else begin
    t.send ~dst:src (Preempted { b = t.prom });
    (* The sender is an alive, active leader we cannot accept (our acceptor
       promised higher): stop competing and let it re-scout above us. *)
    if state_is_scouting t.state then begin
      t.state <- Passive;
      t.fd_leader <- Activated src;
      t.backoff <- t.election_ticks
    end
  end

let on_p2b t ~src ~b ~start_slot ~count =
  if state_is_active t.state && ballot_compare b t.ballot = 0 then begin
    let cap = Array.length t.w_acks in
    for slot = max start_slot t.w_base to min (start_slot + count) t.next_slot - 1
    do
      let i = pos cap slot in
      t.w_acks.(i) <- Quorum.mask_add t.members t.w_acks.(i) src;
      try_commit_slot t i
    done;
    advance_decided_prefix t
  end

let on_preempted t ~b =
  t.max_seen <- ballot_max t.max_seen b;
  if (state_is_scouting t.state || state_is_active t.state)
     && ballot_compare b t.ballot > 0
  then begin
    (* Deposed. We keep watching ourselves, so after a randomized backoff
       (PMMC's prescription, avoiding repeated scout collisions) we retry
       with a higher ballot. *)
    t.state <- Passive;
    t.fd_leader <- Myself;
    t.backoff <-
      t.election_ticks + Random.State.int t.rand (t.election_ticks + 1)
  end

(* Promote accepted slots to decided up to the leader's watermark. A slot
   accepted in the watermark's ballot holds the decided value (any value
   accepted at or above the deciding ballot equals it); anything else needs
   an explicit catch-up. *)
let on_watermark t ~src ~b ~upto =
  let progressed = ref false in
  let rec go () =
    let len = Log.length t.decided in
    if len < upto then
      if ballot_compare (accepted_ballot t len) b = 0 then begin
        Log.append t.decided t.acc_cmd.(pos (Array.length t.acc_cmd) len);
        progressed := true;
        go ()
      end
      else t.send ~dst:src (Decision_req { from = len })
  in
  go ();
  if !progressed then begin
    trim_below_decided t;
    decided t;
    maybe_compact t
  end

let on_decision t ~src ~start_slot ~cmds =
  let len = Log.length t.decided in
  if start_slot > len then t.send ~dst:src (Decision_req { from = len })
  else begin
    let skip = len - start_slot in
    let fresh = List.filteri (fun i _ -> i >= skip) cmds in
    if not (List.is_empty fresh) then begin
      Log.append_list t.decided fresh;
      trim_below_decided t;
      decided t;
      maybe_compact t
    end
  end

let on_decision_req t ~src ~from =
  let floor = Log.first_idx t.decided in
  if from < floor then
    (* The requested prefix was compacted away: ship the snapshot, which
       lands the straggler at our watermark. *)
    send_snapshot t ~dst:src
  else if from < Log.length t.decided then
    t.send ~dst:src
      (Decision { start_slot = from; cmds = Log.suffix t.decided ~from })

(* Install a peer's snapshot: replace everything below [idx] with the shipped
   state and restart the decided log there. Only ever a jump forward — the
   store refuses a stale or duplicate snapshot. *)
let on_snapshot t ~idx ~payload =
  match Store.decode ~idx payload with
  | Ok snap when Store.install t.store t.decided ~node:t.id snap ->
      trim_below_decided t;
      decided t
  | Ok _ | Error _ -> ()

let handle t ~src msg =
  if src >= 0 && src < Array.length t.last_heard then
    t.last_heard.(src) <- t.tick_count;
  match msg with
  | Heartbeat -> ()
  | P1a { b; from_slot } -> on_p1a t ~src ~b ~from_slot
  | P1b { b; accepted } -> on_p1b t ~src ~b ~accepted
  | P2a { b; start_slot; cmds } -> on_p2a t ~src ~b ~start_slot ~cmds
  | P2b { b; start_slot; count } -> on_p2b t ~src ~b ~start_slot ~count
  | Preempted { b } -> on_preempted t ~b
  | Decided_watermark { b; upto } -> on_watermark t ~src ~b ~upto
  | Decision { start_slot; cmds } -> on_decision t ~src ~start_slot ~cmds
  | Decision_req { from } -> on_decision_req t ~src ~from
  | Snapshot { idx; payload } -> on_snapshot t ~idx ~payload

(* Retransmit old uncommitted slots (covers lost messages), one P2a per
   run of consecutive due slots. All runs are built before the first send. *)
let retransmit_uncommitted t =
  let cap = Array.length t.w_cmd in
  let due slot =
    let i = pos cap slot in
    (not t.w_committed.(i)) && t.tick_count - t.w_born.(i) >= t.election_ticks
  in
  let runs = ref [] in
  let slot = ref t.w_base in
  while !slot < t.next_slot do
    if due !slot then begin
      let start = !slot in
      while !slot < t.next_slot && due !slot do
        t.w_born.(pos cap !slot) <- t.tick_count;
        incr slot
      done;
      let cmds = window_cmds t ~from:start ~count:(!slot - start) in
      runs := P2a { b = t.ballot; start_slot = start; cmds } :: !runs
    end
    else incr slot
  done;
  List.iter (fun m -> List.iter (fun p -> t.send ~dst:p m) t.peers)
    (List.rev !runs)

let step_tick t =
  t.tick_count <- t.tick_count + 1;
  if t.tick_count mod t.heartbeat_ticks = 0 then
    List.iter (fun p -> t.send ~dst:p Heartbeat) t.peers;
  match t.state with
  | Active ->
      flush_p2a t;
      if t.tick_count mod t.heartbeat_ticks = 0 then begin
        let signal =
          P2a { b = t.ballot; start_slot = t.next_slot; cmds = [] }
        in
        List.iter (fun p -> t.send ~dst:p signal) t.peers
      end;
      if t.tick_count mod t.election_ticks = 0 then retransmit_uncommitted t
  | Scouting ->
      t.scout_ticks <- t.scout_ticks + 1;
      if t.scout_ticks >= t.election_ticks then start_scout t
  | Passive ->
      let suspect =
        match t.fd_leader with
        | No_leader | Myself -> true
        | Activated l -> not (alive t l)
      in
      if suspect then begin
        if t.backoff > 0 then t.backoff <- t.backoff - 1 else start_scout t
      end

(* Leader transitions are traced once per tick, with the ballot round as
   term. *)
let tick t =
  step_tick t;
  Obs.Term_trace.note_leader t.obs ~node:t.id ~leader:(leader_pid t)
    ~term:t.ballot.n

let session_reset t ~peer =
  (* Lost watermarks and P2as are recovered by the periodic announce and
     retransmission paths; re-announce the watermark eagerly. *)
  if state_is_active t.state then
    t.send ~dst:peer
      (Decided_watermark { b = t.ballot; upto = Log.length t.decided })

let state t = t.state
let is_leader t = state_is_active t.state

let current_ballot t = t.ballot
let decided_log t = t.decided
let decided_length t = Log.length t.decided
let first_idx t = Log.first_idx t.decided
let store t = t.store

let cmds_size cmds = List.fold_left (fun acc c -> acc + Command.size c) 0 cmds

let msg_size = function
  | Heartbeat -> 9
  | P1a _ -> 33
  | P1b { accepted; _ } ->
      25
      + List.fold_left (fun acc (_, _, c) -> acc + 24 + Command.size c) 0 accepted
  | P2a { cmds; _ } -> 33 + cmds_size cmds
  | P2b _ -> 33
  | Preempted _ -> 25
  | Decided_watermark _ -> 25
  | Decision { cmds; _ } -> 17 + cmds_size cmds
  | Decision_req _ -> 17
  | Snapshot { payload; _ } -> 17 + String.length payload
