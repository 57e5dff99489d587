module Log = Replog.Log
module Quorum = Replog.Quorum
module Store = Omnipaxos.Compaction.Store

type entry_data =
  | Cmd of Replog.Command.t
  | Config of { config_id : int; voters : int list }

type entry = { term : int; data : entry_data }

type msg =
  | Request_vote of {
      term : int;
      last_log_idx : int;
      last_log_term : int;
      pre_vote : bool;
    }
  | Vote of { term : int; granted : bool; pre_vote : bool }
  | Append_entries of {
      term : int;
      prev_idx : int;
      prev_term : int;
      entries : entry Log.slice;
      commit_idx : int;
    }
  | Append_resp of { term : int; success : bool; match_idx : int }
  | Install_snapshot of {
      term : int;
      idx : int;  (* the snapshot covers log indexes [0, idx) *)
      snap_term : int;  (* term of the entry at idx - 1 *)
      payload : string;
      commit_idx : int;
    }

type persistent = {
  mutable term : int;
  mutable voted_for : int option;
  log : entry Replog.Log.t;
  (* The applied state of the committed prefix, and [snap_term] the term of
     the entry below the trim point (needed for the AppendEntries
     consistency check at the boundary). Durable: a trim is only safe once
     the state below it survives a crash. *)
  store : Store.t;
  mutable snap_term : int;
}

type role = Follower | Candidate | Leader

let role_is_leader = function Leader -> true | Follower | Candidate -> false
let role_is_follower = function Follower -> true | Candidate | Leader -> false
let role_is_candidate = function Candidate -> true | Follower | Leader -> false

type t = {
  id : int;
  mutable voters : int list;  (** includes [id] *)
  mutable learners : int list;  (** ascending *)
  pre_vote : bool;
  check_quorum : bool;
  election_ticks : int;
  heartbeat_ticks : int;
  rand : Random.State.t;
  dur : persistent;
  send : dst:int -> msg -> unit;
  mutable role : role;
  mutable leader_id : int option;
  mutable commit_idx : int;
  mutable ticks_since_hb : int;
  mutable timeout_ticks : int;
  (* Candidate state: the voters that granted our vote and pre-vote, self
     included. *)
  mutable votes : Quorum.t;
  mutable pre_votes : Quorum.t;
  mutable in_pre_vote : bool;
  (* Leader state, one cell per pid, -1 = absent: counts of log entries
     known sent / replicated per peer. The arrays grow to cover every pid
     that is a replication target. *)
  mutable next_idx : int array;
  mutable sent_idx : int array;
  mutable match_idx : int array;
  (* CheckQuorum state: the voters heard from in this window, self
     included. *)
  mutable quorum_acks : Quorum.t;
  mutable cq_window : int;
  mutable last_config : (int * int list) option;
  mutable tick_count : int;
  mutable last_resp : int array;  (* pid -> tick of last AppendResp *)
  mutable last_send : int array;  (* pid -> tick of last AppendEntries *)
  (* Derived from [voters] and [learners], recomputed only when either
     changes: [targets] is [peer_voters] followed by the learners in pid
     order. *)
  mutable members : Quorum.members;  (* [voters] *)
  mutable peer_voters : int array;
  mutable targets : int array;
  mutable target_set : Quorum.members;
      (* [targets], for an O(1) membership test: the leader tracks no other
         pid *)
  (* Derived from the shared [Batching.config] so the Fig 7/8 comparisons
     stay apples-to-apples. [max_batch] caps entries per AppendEntries
     (large catch-ups stream as a pipeline of batches); [eager_batch > 0]
     flushes a proposal burst as soon as that many entries are pending for
     some peer instead of waiting for the tick. *)
  max_batch : int;
  eager_batch : int;
  (* Local compaction: every server trims below its own commit index, the
     classic Raft local decision. *)
  compaction : Omnipaxos.Compaction.config;
  obs : Obs.Term_trace.t;
}

let fresh_persistent () =
  {
    term = 0;
    voted_for = None;
    log = Log.create ();
    store = Store.create ();
    snap_term = 0;
  }

let reset_timeout t =
  t.ticks_since_hb <- 0;
  t.timeout_ticks <-
    t.election_ticks + Random.State.int t.rand (t.election_ticks + 1)

(* Grow the per-pid leader arrays to cover [pid]; new cells are absent. *)
let ensure_pid t pid =
  let width = Array.length t.next_idx in
  if pid >= width then begin
    let widen a =
      let a' = Array.make (max (pid + 1) (2 * width)) (-1) in
      Array.blit a 0 a' 0 width;
      a'
    in
    t.next_idx <- widen t.next_idx;
    t.sent_idx <- widen t.sent_idx;
    t.match_idx <- widen t.match_idx;
    t.last_resp <- widen t.last_resp;
    t.last_send <- widen t.last_send
  end

(* The value [a] holds for [pid], or [default] when absent. *)
let lookup a pid ~default =
  if pid < Array.length a && a.(pid) >= 0 then a.(pid) else default

(* The reply sets move to the new voter set, keeping the replies of pids
   that stay voters. *)
let recompute_targets t =
  let peers = List.filter (fun v -> v <> t.id) t.voters in
  t.members <- Quorum.members t.voters;
  t.votes <- Quorum.restrict t.votes t.members;
  t.pre_votes <- Quorum.restrict t.pre_votes t.members;
  t.quorum_acks <- Quorum.restrict t.quorum_acks t.members;
  t.peer_voters <- Array.of_list peers;
  t.targets <- Array.of_list (peers @ t.learners);
  t.target_set <- Quorum.members (peers @ t.learners);
  Array.iter (ensure_pid t) t.targets

(* A node whose id is not in [voters] is a learner: it accepts entries and
   answers the leader but never campaigns or votes until a committed Config
   entry promotes it. *)
let create ~id ~voters ?(pre_vote = false) ?(check_quorum = false)
    ?(batching = Omnipaxos.Batching.fixed)
    ?(compaction = Omnipaxos.Compaction.disabled) ~election_ticks ~rand
    ~persistent ~send () =
  let b = Omnipaxos.Batching.validated batching in
  let members = Quorum.members voters in
  let t =
    {
      id;
      voters;
      learners = [];
      pre_vote;
      check_quorum;
      election_ticks;
      heartbeat_ticks = max 1 (election_ticks / 5);
      rand;
      dur = persistent;
      send;
      role = Follower;
      leader_id = None;
      commit_idx = 0;
      ticks_since_hb = 0;
      timeout_ticks = election_ticks;
      votes = Quorum.create ~self:id members;
      pre_votes = Quorum.create ~self:id members;
      in_pre_vote = false;
      next_idx = [||];
      sent_idx = [||];
      match_idx = [||];
      quorum_acks = Quorum.create ~self:id members;
      cq_window = 0;
      last_config = None;
      tick_count = 0;
      last_resp = [||];
      last_send = [||];
      members;
      peer_voters = [||];
      targets = [||];
      target_set = members;
      max_batch = b.max_batch;
      eager_batch = (if b.adaptive then b.min_batch else 0);
      compaction = Omnipaxos.Compaction.validated compaction;
      obs = Obs.Term_trace.create ();
    }
  in
  recompute_targets t;
  reset_timeout t;
  t

let last_log_term t =
  match Log.last t.dur.log with Some e -> e.term | None -> t.dur.snap_term

let log_ok t ~last_log_idx ~last_log_term:cand_term =
  let my_term = last_log_term t in
  cand_term > my_term
  || (cand_term = my_term && last_log_idx >= Log.length t.dur.log)

let become_follower t ~term =
  if term > t.dur.term then begin
    t.dur.term <- term;
    t.dur.voted_for <- None
  end;
  t.role <- Follower;
  t.in_pre_vote <- false;
  reset_timeout t

(* The command the store applies for a committed entry. A committed Config
   entry switches the voter set instead: a removed server steps down, and
   promoted learners stop being learners. *)
let entry_command t e =
  match e.data with
  | Cmd c -> c
  | Config { config_id; voters } ->
      t.voters <- voters;
      t.last_config <- Some (config_id, voters);
      t.learners <- List.filter (fun l -> not (List.mem l voters)) t.learners;
      recompute_targets t;
      if not (List.mem t.id voters) then t.role <- Follower;
      Store.no_command

(* Compaction runs below the local commit index only, so the committed
   prefix invariant (identical at every server) makes the snapshot
   identical to what every other server will compute. *)
let maybe_compact t =
  let log = t.dur.log in
  let upto =
    Omnipaxos.Compaction.trim_point t.compaction ~floor:(Log.first_idx log)
      ~decided:t.commit_idx
  in
  if upto > Log.first_idx log then begin
    t.dur.snap_term <- (Log.get log (upto - 1)).term;
    Store.trim t.dur.store log ~node:t.id ~upto ~taken:true
  end

(* The store applies only what it has not applied: after [recover] rewound
   the commit index, the entries up to the old one are not applied (nor
   their Config entries switched) twice. *)
let advance_commit t c =
  if c > t.commit_idx then begin
    t.commit_idx <- c;
    Store.apply t.dur.store t.dur.log ~upto:c entry_command t;
    Obs.Term_trace.note_decided ~node:t.id ~term:t.dur.term
      ~leader:t.leader_id ~decided_idx:c;
    maybe_compact t
  end

let advance_commit_follower t leader_commit =
  advance_commit t (min leader_commit (Log.length t.dur.log))

(* Leader: commit the largest index replicated on a quorum of voters (our
   log counts as replicated), but only if that entry is from the current
   term (Raft's commit rule). *)
let try_commit t =
  let n =
    Quorum.index t.members t.match_idx ~self:t.id
      ~local:(Log.length t.dur.log) ~above:t.commit_idx
  in
  if n > t.commit_idx && (Log.get t.dur.log (n - 1)).term = t.dur.term then
    advance_commit t n

(* Term of the entry before index [idx+1]: at the snapshot boundary the
   log no longer has the entry, but its term was saved at compaction time.
   Callers never look below [first_idx - 1]. *)
let prev_term_at t prev_idx =
  if prev_idx < 0 then 0
  else if prev_idx < Log.first_idx t.dur.log then t.dur.snap_term
  else (Log.get t.dur.log prev_idx).term

(* The snapshot covers the applied prefix [0, idx); the tail streams from
   [idx] as normal batches. *)
let send_install t ~dst =
  let idx = Store.applied t.dur.store in
  t.send ~dst
    (Install_snapshot
       {
         term = t.dur.term;
         idx;
         snap_term = prev_term_at t (idx - 1);
         payload = Store.encode t.dur.store ~idx;
         commit_idx = t.commit_idx;
       });
  t.last_send.(dst) <- t.tick_count;
  t.sent_idx.(dst) <- idx

(* The AppendEntries carrying [entries], which follow log index
   [prev_idx]. *)
let send_entries t ~dst ~prev_idx entries =
  t.send ~dst
    (Append_entries
       {
         term = t.dur.term;
         prev_idx;
         prev_term = prev_term_at t prev_idx;
         entries;
         commit_idx = t.commit_idx;
       })

let send_append t ~dst ~from =
  let log = t.dur.log in
  if from < Log.first_idx log then
    (* The entries this follower needs were compacted away: ship the
       snapshot instead; the tail streams as normal batches afterwards. *)
    send_install t ~dst
  else begin
    let count = min t.max_batch (Log.length log - from) in
    send_entries t ~dst ~prev_idx:(from - 1)
      (Log.slice log ~pos:from ~len:count);
    t.last_send.(dst) <- t.tick_count;
    t.sent_idx.(dst) <- from + count
  end

(* Heartbeats probe at the follower's confirmed position (next_idx), not at
   the end of the in-flight pipeline — probing ahead would be rejected while
   batches are still draining and trigger spurious re-streams. *)
let send_heartbeat t ~dst =
  let sent = lookup t.next_idx dst ~default:(Log.length t.dur.log) in
  if sent < Log.first_idx t.dur.log then send_install t ~dst
  else send_entries t ~dst ~prev_idx:(sent - 1) (Log.slice_of_list [])

let become_leader t =
  t.role <- Leader;
  t.leader_id <- Some t.id;
  t.in_pre_vote <- false;
  Array.fill t.next_idx 0 (Array.length t.next_idx) (-1);
  Array.fill t.sent_idx 0 (Array.length t.sent_idx) (-1);
  Array.fill t.match_idx 0 (Array.length t.match_idx) (-1);
  Quorum.clear t.quorum_acks;
  t.cq_window <- 0;
  let len = Log.length t.dur.log in
  Array.iter
    (fun p ->
      t.next_idx.(p) <- len;
      t.sent_idx.(p) <- len;
      t.match_idx.(p) <- 0;
      send_heartbeat t ~dst:p)
    t.targets

let request_votes t ~pre =
  let rv =
    Request_vote
      {
        term = (if pre then t.dur.term + 1 else t.dur.term);
        last_log_idx = Log.length t.dur.log;
        last_log_term = last_log_term t;
        pre_vote = pre;
      }
  in
  Array.iter (fun p -> t.send ~dst:p rv) t.peer_voters

let start_election t =
  t.dur.term <- t.dur.term + 1;
  t.dur.voted_for <- Some t.id;
  t.role <- Candidate;
  t.leader_id <- None;
  t.in_pre_vote <- false;
  Quorum.clear t.votes;
  reset_timeout t;
  if Quorum.reached t.votes then become_leader t else request_votes t ~pre:false

let start_pre_vote t =
  t.in_pre_vote <- true;
  Quorum.clear t.pre_votes;
  reset_timeout t;
  if Quorum.reached t.pre_votes then start_election t
  else request_votes t ~pre:true

let on_election_timeout t =
  if List.mem t.id t.voters then
    if t.pre_vote then start_pre_vote t else start_election t

let step_tick t =
  t.tick_count <- t.tick_count + 1;
  match t.role with
  | Leader ->
      t.ticks_since_hb <- t.ticks_since_hb + 1;
      let len = Log.length t.dur.log in
      Array.iter
        (fun p ->
          let sent = lookup t.sent_idx p ~default:len in
          let next = lookup t.next_idx p ~default:len in
          let last_resp = lookup t.last_resp p ~default:t.tick_count in
          let last_send = lookup t.last_send p ~default:t.tick_count in
          let quiet = t.tick_count - max last_resp last_send in
          if next < sent && quiet >= 2 * t.election_ticks then
            (* Nothing sent and nothing heard for two timeouts with an
               unacknowledged window: assume it was lost and retransmit from
               the last agreed index. *)
            send_append t ~dst:p ~from:next
          else if sent < len then send_append t ~dst:p ~from:sent
          else if t.ticks_since_hb mod t.heartbeat_ticks = 0 then
            send_heartbeat t ~dst:p)
        t.targets;
      if t.check_quorum then begin
        t.cq_window <- t.cq_window + 1;
        if t.cq_window >= t.election_ticks then begin
          if not (Quorum.reached t.quorum_acks) then
            become_follower t ~term:t.dur.term;
          Quorum.clear t.quorum_acks;
          t.cq_window <- 0
        end
      end
  | Follower | Candidate ->
      t.ticks_since_hb <- t.ticks_since_hb + 1;
      if t.ticks_since_hb >= t.timeout_ticks then on_election_timeout t

(* Leader transitions are traced once per tick, with the term as ballot. *)
let tick t =
  step_tick t;
  Obs.Term_trace.note_leader t.obs ~node:t.id ~leader:t.leader_id
    ~term:t.dur.term

let on_request_vote t ~src ~term ~last_log_idx ~last_log_term ~pre =
  if pre then begin
    (* PreVote: grant without touching any state, and only if our own
       election timer has expired (we no longer hear a leader). *)
    let granted =
      term > t.dur.term
      && t.ticks_since_hb >= t.election_ticks
      && log_ok t ~last_log_idx ~last_log_term
    in
    t.send ~dst:src (Vote { term; granted; pre_vote = true })
  end
  else begin
    if term > t.dur.term then become_follower t ~term;
    let granted =
      term = t.dur.term
      && (match t.dur.voted_for with
         | None -> true
         | Some v -> Int.equal v src)
      && log_ok t ~last_log_idx ~last_log_term
    in
    if granted then begin
      t.dur.voted_for <- Some src;
      reset_timeout t
    end;
    t.send ~dst:src (Vote { term = t.dur.term; granted; pre_vote = false })
  end

let on_vote t ~src ~term ~granted ~pre =
  if pre then begin
    if t.in_pre_vote && (not (role_is_leader t.role)) && granted
       && term = t.dur.term + 1
    then begin
      Quorum.add t.pre_votes src;
      if Quorum.reached t.pre_votes then start_election t
    end
  end
  else if term > t.dur.term then become_follower t ~term
  else if role_is_candidate t.role && term = t.dur.term && granted then begin
    Quorum.add t.votes src;
    if Quorum.reached t.votes then become_leader t
  end

(* The position in [entries] (whose first entry sits at log index [base])
   of the first entry at or above the trim point that the log lacks or
   holds with another term, from [k] on. *)
let rec first_new (log : entry Log.t) (entries : entry Log.slice) ~base k =
  if k >= Log.slice_length entries then k
  else
    let idx = base + k in
    if
      idx < Log.first_idx log
      || idx < Log.length log
         && (Log.get log idx).term = (Log.slice_get entries k).term
    then first_new log entries ~base (k + 1)
    else k

(* Answer the AppendEntries or InstallSnapshot of leader [dst]. *)
let respond t ~dst ~success ~match_idx =
  t.send ~dst (Append_resp { term = t.dur.term; success; match_idx })

(* The prologue of a message from the leader [src] of [term]: refuse a
   stale term (the refusal carries our log length), otherwise follow
   [src]. Returns whether the message is to be applied. *)
let accept_leader t ~src ~term =
  if term < t.dur.term then begin
    respond t ~dst:src ~success:false ~match_idx:(Log.length t.dur.log);
    false
  end
  else begin
    if term > t.dur.term || not (role_is_follower t.role) then
      become_follower t ~term;
    t.leader_id <- Some src;
    t.ticks_since_hb <- 0;
    true
  end

let on_append_entries t ~src ~term ~prev_idx ~prev_term ~entries ~leader_commit
    =
  if accept_leader t ~src ~term then begin
    let log = t.dur.log in
    let floor = Log.first_idx log in
    let ok =
      prev_idx < 0
      (* At or below our snapshot boundary: the prefix is committed state,
         identical at every server by the commit invariant, so it matches
         by definition (the entry itself may be gone). *)
      || (prev_idx < floor && prev_idx < Log.length log)
      || (prev_idx < Log.length log && prev_term_at t prev_idx = prev_term)
    in
    if not ok then
      respond t ~dst:src ~success:false
        ~match_idx:(min (Log.length log) (max 0 prev_idx))
    else begin
      (* Append from the first entry we lack, truncating a conflicting
         tail; skip duplicates. Entries below the trim point are part of
         our snapshot already. *)
      let k = first_new log entries ~base:(prev_idx + 1) 0 in
      if k < Log.slice_length entries then begin
        Log.truncate log (prev_idx + 1 + k);
        Log.append_slice log entries ~skip:k
      end;
      respond t ~dst:src ~success:true
        ~match_idx:(prev_idx + 1 + Log.slice_length entries);
      advance_commit_follower t leader_commit
    end
  end

let on_append_resp t ~src ~term ~success ~match_idx =
  if term > t.dur.term then become_follower t ~term
  else if
    role_is_leader t.role && term = t.dur.term
    && Quorum.is_member t.target_set src
  then begin
    Quorum.add t.quorum_acks src;
    t.last_resp.(src) <- t.tick_count;
    if success then begin
      let prev = lookup t.match_idx src ~default:0 in
      if match_idx > prev then t.match_idx.(src) <- match_idx;
      t.next_idx.(src) <- max match_idx (lookup t.next_idx src ~default:0);
      try_commit t
    end
    else begin
      (* Back off to the follower's hint and retransmit on the next tick. *)
      let next = lookup t.next_idx src ~default:0 in
      t.next_idx.(src) <- min next match_idx;
      t.sent_idx.(src) <- min next match_idx
    end
  end

(* Follower side of the snapshot transfer: replace everything below [idx]
   with the shipped state, restart the log there, and ack [idx] so the
   leader streams the tail as normal batches. A stale or duplicate install
   (our store already applied [idx] entries) is just re-acked. *)
let on_install_snapshot t ~src ~term ~idx ~snap_term ~payload ~leader_commit =
  if accept_leader t ~src ~term then begin
    (* A stale snapshot — at or below what our store applied, which is at
       least our commit index — is refused by the store, which never
       rewinds (a leader that rewound our next-index after a session reset
       can ship an install for a prefix whose tail we committed in the
       meantime). Such an install, like one that does not decode, acks
       the commit index — committed entries are on every leader's log
       (Leader Completeness), so that match claim is always truthful and
       lets the leader resume from there. Acks never cite our own log
       length: entries above the commit index may be uncommitted leftovers
       from an older term that conflict with the leader's log, and a match
       claim beyond the leader's own log breaks its commit accounting. *)
    let ack =
      match Store.decode ~idx payload with
      | Ok snap when Store.install t.dur.store t.dur.log ~node:t.id snap ->
          t.dur.snap_term <- snap_term;
          t.commit_idx <- idx;
          idx
      | Ok _ | Error _ -> t.commit_idx
    in
    respond t ~dst:src ~success:true ~match_idx:ack;
    advance_commit_follower t leader_commit
  end

let handle t ~src msg =
  match msg with
  | Request_vote { term; last_log_idx; last_log_term; pre_vote } ->
      on_request_vote t ~src ~term ~last_log_idx ~last_log_term ~pre:pre_vote
  | Vote { term; granted; pre_vote } ->
      on_vote t ~src ~term ~granted ~pre:pre_vote
  | Append_entries { term; prev_idx; prev_term; entries; commit_idx } ->
      on_append_entries t ~src ~term ~prev_idx ~prev_term ~entries
        ~leader_commit:commit_idx
  | Append_resp { term; success; match_idx } ->
      on_append_resp t ~src ~term ~success ~match_idx
  | Install_snapshot { term; idx; snap_term; payload; commit_idx } ->
      on_install_snapshot t ~src ~term ~idx ~snap_term ~payload
        ~leader_commit:commit_idx

let session_reset t ~peer =
  if role_is_leader t.role && Quorum.is_member t.target_set peer then begin
    (* In-flight batches were lost: rewind the pipeline to the last index
       known replicated. *)
    let m = lookup t.match_idx peer ~default:0 in
    t.next_idx.(peer) <- m;
    t.sent_idx.(peer) <- m
  end

let recover t =
  t.role <- Follower;
  t.leader_id <- None;
  (* Everything below the trim point is committed by construction (we only
     trim below the commit index), so recovery resumes there, not at 0; the
     store does not re-apply what it applied before. *)
  t.commit_idx <- Log.first_idx t.dur.log;
  reset_timeout t

let propose t cmd =
  if role_is_leader t.role then begin
    Log.append t.dur.log { term = t.dur.term; data = Cmd cmd };
    if Quorum.quorum t.members = 1 then try_commit t;
    (* Eager size-triggered flush (adaptive batching, mirrored from
       Omni-Paxos): once a burst fills [eager_batch] for some peer, ship it
       now instead of on the next tick. *)
    if t.eager_batch > 0 then begin
      let len = Log.length t.dur.log in
      let targets = t.targets in
      for k = 0 to Array.length targets - 1 do
        let p = targets.(k) in
        let sent = lookup t.sent_idx p ~default:len in
        if len - sent >= t.eager_batch then send_append t ~dst:p ~from:sent
      done
    end;
    if Obs.Trace.on_kind Obs.Event.proposed_tag then
      Obs.Trace.emit ~node:t.id
        (Obs.Event.Proposed
           {
             log_idx = Log.length t.dur.log - 1;
             cmd_id = cmd.Replog.Command.id;
           });
    true
  end
  else false

let add_learners t ids =
  if role_is_leader t.role then
    List.iter
      (fun l ->
        if (not (List.mem l t.voters)) && not (List.mem l t.learners) then begin
          t.learners <- List.sort Int.compare (l :: t.learners);
          recompute_targets t;
          t.next_idx.(l) <- 0;
          t.sent_idx.(l) <- 0;
          t.match_idx.(l) <- 0
        end)
      ids

let learners_caught_up t =
  List.for_all
    (fun l -> lookup t.match_idx l ~default:0 >= Log.length t.dur.log)
    t.learners

let propose_config t ~config_id ~voters =
  if role_is_leader t.role then begin
    Log.append t.dur.log { term = t.dur.term; data = Config { config_id; voters } };
    (* The new voter set takes effect at append time at each server (Raft's
       single-entry membership change discipline, applied here to the
       leader; followers apply it when the entry commits cluster-wide via
       the service layer in the harness). *)
    true
  end
  else false

let committed_config t = t.last_config

let is_leader t = role_is_leader t.role
let leader_pid t = t.leader_id
let current_term t = t.dur.term
let commit_idx t = t.commit_idx
let log_length t = Log.length t.dur.log
let first_idx t = Log.first_idx t.dur.log
let store t = t.dur.store

(* Per-entry wire overhead beyond the command payload: terms are
   run-length encoded in practice, so they amortise to ~2 bytes/entry. *)
let entry_size e =
  2
  +
  match e.data with
  | Cmd c -> Replog.Command.size c
  | Config { voters; _ } -> 16 + (8 * List.length voters)

(* [acc] plus the bytes of the entries of [s] from its [i]th on. *)
let rec entries_size s i acc =
  if i >= Log.slice_length s then acc
  else entries_size s (i + 1) (acc + entry_size (Log.slice_get s i))

let msg_size = function
  | Request_vote _ -> 42
  | Vote _ -> 15
  | Append_entries { entries; _ } -> 49 + entries_size entries 0 0
  | Append_resp _ -> 22
  | Install_snapshot { payload; _ } -> 49 + String.length payload
