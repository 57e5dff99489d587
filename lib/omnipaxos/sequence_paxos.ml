module Log = Replog.Log
module Quorum = Replog.Quorum
module Store = Compaction.Store

type accept = {
  n : Ballot.t;
  start_idx : int;
  entries : Entry.t Log.slice;
  decided_idx : int;
  size : int;  (* [msg_size], computed once by [accept] *)
}

type msg =
  | Prepare of {
      n : Ballot.t;
      acc_rnd : Ballot.t;
      log_idx : int;
      decided_idx : int;
    }
  | Promise of {
      n : Ballot.t;
      acc_rnd : Ballot.t;
      log_idx : int;
      decided_idx : int;
      suffix_from : int;
      suffix : Entry.t Log.slice;
      snapshot : (int * string) option;
    }
  | Accept_sync of {
      n : Ballot.t;
      sync_idx : int;
      suffix : Entry.t Log.slice;
      decided_idx : int;
      snapshot : (int * string) option;
          (* state snapshot covering [0, idx), for followers below the
             leader's trim point *)
    }
  | Accept of accept
  | Accepted of { n : Ballot.t; log_idx : int }
  | Decide of { n : Ballot.t; decided_idx : int }
  | Trim of { n : Ballot.t; trim_idx : int }
  | Prepare_req

type persistent = {
  log : Entry.t Log.t;
  mutable prom_rnd : Ballot.t;
  mutable acc_rnd : Ballot.t;
  mutable decided_idx : int;
  (* The applied state of [0, decided_idx). Durable alongside the log: it
     must survive the crash of a node that trimmed below it, or the prefix
     would be lost forever. *)
  store : Store.t;
}

type role = Follower | Leader_prepare | Leader_accept

(* [acc] plus the bytes of the entries of [s] from its [i]th on. *)
let rec entries_size s i acc =
  if i >= Log.slice_length s then acc
  else entries_size s (i + 1) (acc + Entry.size (Log.slice_get s i))

(* The one constructor of an Accept: its size is summed here, once per
   batch, however many followers the batch is handed to. *)
let accept ~n ~start_idx ~entries ~decided_idx =
  Accept
    { n; start_idx; entries; decided_idx; size = 41 + entries_size entries 0 0 }

let role_is_follower = function
  | Follower -> true
  | Leader_prepare | Leader_accept -> false

let role_is_leader_accept = function
  | Leader_accept -> true
  | Follower | Leader_prepare -> false

type promise_info = {
  p_acc_rnd : Ballot.t;
  p_log_idx : int;
  p_decided_idx : int;
  p_suffix_from : int;
  p_suffix : Entry.t Log.slice;
  p_snapshot : Store.received option;
}

type t = {
  id : int;
  peers : int list;
  members : Quorum.members;  (* [id :: peers] *)
  dur : persistent;
  send : dst:int -> msg -> unit;
  on_decide : int -> unit;
  on_snapshot : int -> string -> unit;
  batching : Batching.config;
  compaction : Compaction.config;
  mutable role : role;
  (* Prepare-phase state: the members that promised in our round (we
     count as one), and each peer's last promise, indexed by pid. *)
  promised : Quorum.t;
  promise : promise_info option array;
  buffer : Entry.t Queue.t;
  (* Accept-phase state, one slot per pid in [0, width) where [width] is
     one past the largest pid of [id :: peers]; iterating the slots in
     index order is ascending pid order. [synced] marks followers that got
     their AcceptSync; [acc_idx] (highest log index acknowledged in this
     round) and [sent_idx] (next index to ship) hold -1 when absent. *)
  synced : bool array;
  acc_idx : int array;
  sent_idx : int array;
  (* Adaptive-batching state (see batching.mli). [batch_cap] is the AIMD
     per-Accept entry cap; [unflushed] counts leader appends since the last
     flush (the size trigger). [acked_idx]/[ack_pending] implement
     follower-side ack coalescing. *)
  mutable batch_cap : int;
  mutable unflushed : int;
  mutable acked_idx : int;
  mutable ack_pending : bool;
  (* Index of the stop-sign entry in the log, if any. *)
  mutable ss_idx : int option;
}

let fresh_persistent () =
  {
    log = Log.create ();
    prom_rnd = Ballot.bottom;
    acc_rnd = Ballot.bottom;
    decided_idx = 0;
    store = Store.create ();
  }

(* The index of the first stop-sign at or above [i], if any. *)
let rec stop_sign_from log i =
  if i >= Log.length log then None
  else if Entry.is_stop_sign (Log.get log i) then Some i
  else stop_sign_from log (i + 1)

(* Apply the decided entries the store has not applied yet: the one walk
   over each decided entry. *)
let apply_decided dur =
  Store.apply dur.store dur.log ~upto:dur.decided_idx Entry.command ()

let create ~id ~peers ~persistent ?(batching = Batching.fixed)
    ?(compaction = Compaction.disabled) ~send ?(on_decide = fun _ -> ())
    ?(on_snapshot = fun _ _ -> ()) () =
  apply_decided persistent;
  let members = Quorum.members (id :: peers) in
  let width = 1 + List.fold_left max id peers in
  let batching = Batching.validated batching in
  let compaction = Compaction.validated compaction in
  {
    id;
    peers;
    members;
    dur = persistent;
    send;
    on_decide;
    on_snapshot;
    batching;
    compaction;
    role = Follower;
    promised = Quorum.create ~self:id members;
    promise = Array.make width None;
    buffer = Queue.create ();
    synced = Array.make width false;
    acc_idx = Array.make width (-1);
    sent_idx = Array.make width (-1);
    batch_cap = batching.Batching.min_batch;
    unflushed = 0;
    acked_idx = 0;
    ack_pending = false;
    ss_idx = stop_sign_from persistent.log (Log.first_idx persistent.log);
  }

let id t = t.id
let role t = t.role

let batch_cap t =
  if t.batching.Batching.adaptive then t.batch_cap
  else t.batching.Batching.max_batch
let is_leader t = not (role_is_follower t.role)
let current_round t = t.dur.prom_rnd

let leader_pid t =
  if Ballot.equal t.dur.prom_rnd Ballot.bottom then None
  else Some t.dur.prom_rnd.Ballot.pid

let decided_idx t = t.dur.decided_idx
let log_length t = Log.length t.dur.log
(* Entries below the trim point are unavailable; reads clamp to it, and
   to the decided index. *)
let decided_from t from = max from (Log.first_idx t.dur.log)
let decided_upto t upto = min upto t.dur.decided_idx

let read_decided t ~from =
  let from = decided_from t from in
  Log.sub t.dur.log ~pos:from ~len:(t.dur.decided_idx - from)

let iter_decided t ~from ~upto f =
  for i = decided_from t from to decided_upto t upto - 1 do
    f (Log.get t.dur.log i)
  done

let read_log t = t.dur.log
let is_stopped t = Option.is_some t.ss_idx

let stop_sign t =
  match t.ss_idx with
  | Some i when t.dur.decided_idx > i -> (
      match Log.get t.dur.log i with
      | Entry.Stop_sign ss -> Some ss
      | Entry.Cmd _ -> None)
  | Some _ | None -> None

(* Replace the log suffix from [at] with the entries of [suffix] from its
   [skip]th on during synchronisation, keeping [ss_idx] accurate (a
   non-chosen stop-sign can be overwritten, Figure 3a). *)
let sync_log t ~at suffix ~skip =
  Log.set_suffix t.dur.log ~at suffix ~skip;
  (match t.ss_idx with Some i when i >= at -> t.ss_idx <- None | _ -> ());
  if Option.is_none t.ss_idx then t.ss_idx <- stop_sign_from t.dur.log at

(* The log's entries from [from] on, as a slice for a message. *)
let suffix_slice t ~from =
  Log.slice t.dur.log ~pos:from ~len:(max 0 (Log.length t.dur.log - from))

let append_entry t e =
  Log.append t.dur.log e;
  if Entry.is_stop_sign e && Option.is_none t.ss_idx then
    t.ss_idx <- Some (Log.length t.dur.log - 1)

(* Proposal spans key off this event: the moment a client command enters the
   leader's log. Stop-signs carry cmd_id -1. *)
let trace_proposed t e =
  if Obs.Trace.on_kind Obs.Event.proposed_tag then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Proposed
         {
           log_idx = Log.length t.dur.log - 1;
           cmd_id =
             (match e with
             | Entry.Cmd c -> c.Replog.Command.id
             | Entry.Stop_sign _ -> -1);
         })

(* ------------------------------------------------------------------ *)
(* Snapshotting and log compaction                                     *)
(* ------------------------------------------------------------------ *)

let first_idx t = Log.first_idx t.dur.log

let store t = t.dur.store

(* Never trim a decided stop-sign away: [stop_sign] reads it from the log
   (late-transitioning servers in a reconfiguration still need it), and the
   snapshot state machine does not carry it. *)
let trim_cap t ~upto =
  match t.ss_idx with Some i -> min upto i | None -> upto

(* The index a shipped snapshot is labelled with, and its suffix starts
   at: the decided index, or a decided stop-sign's own index, so that the
   suffix carries the stop-sign to the receiver. The stop-sign applies
   nothing, so the state at the decided index is the state at its
   index. *)
let snapshot_idx t = trim_cap t ~upto:t.dur.decided_idx

(* The encoded state covering [0, decided_idx), labelled at
   [snapshot_idx]. *)
let snapshot t = Store.encode t.dur.store ~idx:(snapshot_idx t)

(* Adopt a snapshot + entry suffix pair from a peer whose suffix starts at
   the snapshot's [idx]. The store refuses a snapshot at or below our
   decided index — it already applied that prefix, so re-installing would
   roll the state machine back (a leader answering two Promises from the
   same session reset ships the same install twice, and the second finds
   the first applied; a snapshot labelled at a decided stop-sign can reach
   a follower that decided the stop-sign). Then only the suffix is spliced
   into the log, dropping any overlap below our own trim floor. An install
   discards every local entry; the suffix goes on top. *)
let adopt_snapshot_suffix t (snap : Store.received) ~suffix =
  let idx = snap.idx in
  if Store.install t.dur.store t.dur.log ~node:t.id snap then begin
    t.ss_idx <- None;
    t.dur.decided_idx <- idx;
    t.on_snapshot idx snap.envelope;
    sync_log t ~at:idx suffix ~skip:0
  end
  else begin
    let at = max idx (Log.first_idx t.dur.log) in
    sync_log t ~at suffix ~skip:(at - idx)
  end

(* Largest log index accepted (in this round) by a quorum, counting our own
   log as accepted, or [above] when fewer than a quorum exceed [above]. *)
let quorum_idx t ~above =
  Quorum.index t.members t.acc_idx ~self:t.id ~local:(Log.length t.dur.log)
    ~above

(* The compaction watermark bound: never trim an entry some quorum has not
   confirmed, or the Prepare phase of a future leader could need it. *)
let quorum_acc_idx t = quorum_idx t ~above:0

(* Leader: compact the decided prefix below [upto] and tell every peer to
   do the same. *)
let broadcast_trim t ~upto ~taken =
  Store.trim t.dur.store t.dur.log ~node:t.id ~upto ~taken;
  let m = Trim { n = t.dur.prom_rnd; trim_idx = upto } in
  List.iter (fun p -> t.send ~dst:p m) t.peers

(* Leader-side compaction trigger, run once the followers have been told
   the new decided index (after [try_decide]'s Decides and at the end of
   [complete_prepare], whose AcceptSyncs carry it): once
   [snapshot_interval] decided entries accumulate above the trim point,
   snapshot and trim up to the quorum-confirmed watermark (minus [retain])
   and tell the followers to do the same. Links are FIFO, so a synced
   follower sees the Decide before the Trim and its [on_trim] finds
   [trim_idx <= decided_idx]. Deliberately quorum-based rather than
   all-peers: a crashed or partitioned straggler must not block compaction
   — it is repaired later with a snapshot install. *)
let maybe_compact t =
  if role_is_leader_accept t.role then begin
    let floor = Log.first_idx t.dur.log in
    let due =
      Compaction.trim_point t.compaction ~floor ~decided:t.dur.decided_idx
    in
    if due > floor then begin
      let upto = trim_cap t ~upto:(min due (quorum_acc_idx t)) in
      if upto > floor then broadcast_trim t ~upto ~taken:true
    end
  end

let advance_decided t d =
  let d = min d (Log.length t.dur.log) in
  if d > t.dur.decided_idx then begin
    t.dur.decided_idx <- d;
    apply_decided t.dur;
    if Obs.Trace.on () then
      Obs.Trace.emit ~node:t.id
        (Obs.Event.Decided
           { b = Ballot.to_event t.dur.acc_rnd; decided_idx = d });
    t.on_decide d
  end

(* Leader: decide the largest index accepted (in this round) by a quorum,
   tell the synced followers in ascending pid order, then compact. *)
let try_decide t =
  let decidable = quorum_idx t ~above:t.dur.decided_idx in
  if decidable > t.dur.decided_idx then begin
    advance_decided t decidable;
    let decide = Decide { n = t.dur.prom_rnd; decided_idx = decidable } in
    for f = 0 to Array.length t.synced - 1 do
      if t.synced.(f) then t.send ~dst:f decide
    done;
    maybe_compact t
  end

let reset_followers t =
  Array.fill t.synced 0 (Array.length t.synced) false;
  Array.fill t.acc_idx 0 (Array.length t.acc_idx) (-1);
  Array.fill t.sent_idx 0 (Array.length t.sent_idx) (-1)

(* Trace an Accept or AcceptSync of [count] entries from [start_idx]. *)
let[@inline] trace_accept_sent t ~start_idx ~count =
  if Obs.Trace.on () then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Accept_sent
         { b = Ballot.to_event t.dur.prom_rnd; start_idx; count })

(* Send follower [dst] the AcceptSync that overwrites its log from [wanted]
   with ours. A follower below our trim point (one that lost its disk, or
   lagged past a compaction) cannot be repaired with entries alone: it gets
   the state snapshot covering our decided prefix, then the suffix from
   [snapshot_idx]. *)
let send_accept_sync t ~dst ~wanted =
  let below = wanted < Log.first_idx t.dur.log in
  let sync_idx = if below then snapshot_idx t else wanted in
  let snapshot = if below then Some (sync_idx, snapshot t) else None in
  let suffix = suffix_slice t ~from:sync_idx in
  trace_accept_sent t ~start_idx:sync_idx ~count:(Log.slice_length suffix);
  t.send ~dst
    (Accept_sync
       {
         n = t.dur.prom_rnd;
         sync_idx;
         suffix;
         decided_idx = t.dur.decided_idx;
         snapshot;
       });
  t.synced.(dst) <- true;
  t.sent_idx.(dst) <- Log.length t.dur.log

(* Synchronise the follower that sent [info]: if it accepted in the same
   round as the adopted log, its log is already a consistent prefix and only
   the missing tail is sent; otherwise its non-chosen suffix may conflict
   and is overwritten from its decided index. *)
let accept_sync_follower t ~dst ~(info : promise_info) ~max_acc_rnd =
  send_accept_sync t ~dst
    ~wanted:
      (if Ballot.equal info.p_acc_rnd max_acc_rnd then info.p_log_idx
       else info.p_decided_idx)

(* Prepare phase completion: adopt the most updated log among the quorum of
   promises (P2c), append buffered proposals, and synchronise followers. *)
let complete_prepare t =
  let n = t.dur.prom_rnd in
  (* The leader's own state acts as a promise too. *)
  let best = ref None
  and best_key = ref (t.dur.acc_rnd, Log.length t.dur.log)
  and promised_decided = ref 0 in
  let consider info =
    let r = Ballot.compare info.p_acc_rnd (fst !best_key) in
    if r > 0 || (r = 0 && info.p_log_idx > snd !best_key) then begin
      best := Some info;
      best_key := (info.p_acc_rnd, info.p_log_idx)
    end;
    promised_decided := max !promised_decided info.p_decided_idx
  in
  Quorum.iter (fun src -> Option.iter consider t.promise.(src)) t.promised;
  (* A promiser that compacted past our log end leaves a gap no entry
     suffix can fill (and our entries below its trim floor may be stale
     non-chosen proposals): install its snapshot first, then adopt the
     suffix on top of it. *)
  Option.iter
    (fun info ->
      match info.p_snapshot with
      | Some snap -> adopt_snapshot_suffix t snap ~suffix:info.p_suffix
      | None -> sync_log t ~at:info.p_suffix_from info.p_suffix ~skip:0)
    !best;
  let max_acc_rnd = fst !best_key in
  t.dur.acc_rnd <- n;
  (* Decided indexes reported by the quorum refer to chosen prefixes of the
     adopted log; adopt the largest. *)
  let max_decided = max t.dur.decided_idx !promised_decided in
  (* Append proposals buffered during the Prepare phase, unless the adopted
     log ends the configuration. *)
  Queue.iter
    (fun e ->
      if Option.is_none t.ss_idx then begin
        append_entry t e;
        trace_proposed t e
      end)
    t.buffer;
  Queue.clear t.buffer;
  t.role <- Leader_accept;
  reset_followers t;
  advance_decided t max_decided;
  Quorum.iter
    (fun dst ->
      Option.iter
        (fun info -> accept_sync_follower t ~dst ~info ~max_acc_rnd)
        t.promise.(dst))
    t.promised;
  try_decide t;
  maybe_compact t

(* The Prepare of our round, traced each time it is sent out. *)
let prepare t =
  if Obs.Trace.on () then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Prepare_round
         {
           b = Ballot.to_event t.dur.prom_rnd;
           log_idx = Log.length t.dur.log;
           decided_idx = t.dur.decided_idx;
         });
  Prepare
    {
      n = t.dur.prom_rnd;
      acc_rnd = t.dur.acc_rnd;
      log_idx = Log.length t.dur.log;
      decided_idx = t.dur.decided_idx;
    }

let start_prepare t =
  t.role <- Leader_prepare;
  Quorum.clear t.promised;
  reset_followers t;
  t.batch_cap <- t.batching.Batching.min_batch;
  t.unflushed <- 0;
  t.ack_pending <- false;
  let m = prepare t in
  List.iter (fun peer -> t.send ~dst:peer m) t.peers;
  if Quorum.reached t.promised then complete_prepare t

let handle_leader t (b : Ballot.t) =
  if b.Ballot.pid = t.id then begin
    if Ballot.(b > t.dur.prom_rnd) then begin
      t.dur.prom_rnd <- b;
      start_prepare t
    end
  end
  else if Ballot.(b > t.dur.prom_rnd) then begin
    (* A higher round exists elsewhere: step down, and ask its leader for a
       Prepare — covers servers that started after the Prepare broadcast
       (e.g. a freshly migrated server joining a running configuration). *)
    if not (role_is_follower t.role) then t.role <- Follower;
    t.send ~dst:b.Ballot.pid Prepare_req
  end

let on_prepare t ~src ~n ~l_acc_rnd ~l_log_idx ~l_decided_idx =
  if Ballot.(n >= t.dur.prom_rnd) then begin
    t.dur.prom_rnd <- n;
    if n.Ballot.pid <> t.id then t.role <- Follower;
    (* Send the entries the leader might be missing (Figure 3b (3)). A
       compacted log can only serve entries from its trim point; when the
       leader needs entries below it (its log ends, or its decided prefix
       stops, under our floor) the suffix alone would leave a gap — and the
       leader's own entries below our floor may be stale non-chosen
       proposals — so the promise also carries our snapshot of the decided
       prefix, and the suffix from [snapshot_idx] goes on top. *)
    let promise ~base =
      if base < Log.first_idx t.dur.log then
        let from = snapshot_idx t in
        (from, suffix_slice t ~from, Some (from, snapshot t))
      else (base, suffix_slice t ~from:base, None)
    in
    let suffix_from, suffix, snapshot =
      if Ballot.(t.dur.acc_rnd > l_acc_rnd) then promise ~base:l_decided_idx
      else if
        Ballot.equal t.dur.acc_rnd l_acc_rnd
        && Log.length t.dur.log > l_log_idx
      then promise ~base:l_log_idx
      else
        let len = Log.length t.dur.log in
        (len, suffix_slice t ~from:len, None)
    in
    if Obs.Trace.on () then
      Obs.Trace.emit ~node:t.id
        (Obs.Event.Promise_sent
           {
             b = Ballot.to_event n;
             log_idx = Log.length t.dur.log;
             decided_idx = t.dur.decided_idx;
           });
    t.send ~dst:src
      (Promise
         {
           n;
           acc_rnd = t.dur.acc_rnd;
           log_idx = Log.length t.dur.log;
           decided_idx = t.dur.decided_idx;
           suffix_from;
           suffix;
           snapshot;
         })
  end

let on_promise t ~src ~n ~(info : promise_info) =
  if Ballot.equal n t.dur.prom_rnd && is_leader t then begin
    t.promise.(src) <- Some info;
    Quorum.add t.promised src;
    if role_is_leader_accept t.role then
      (* Straggler outside the Prepare-phase majority, or a peer
         re-promising after a session drop: synchronise it now. *)
      accept_sync_follower t ~dst:src ~info ~max_acc_rnd:t.dur.acc_rnd
    else if Quorum.reached t.promised then complete_prepare t
  end

(* Trace that our log, accepted in round [n], ends at its length. *)
let[@inline] trace_accepted t n =
  if Obs.Trace.on_kind Obs.Event.accepted_tag then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Accepted_idx
         { b = Ballot.to_event n; log_idx = Log.length t.dur.log })

(* Follower: acknowledge our whole log to the leader of round [n]. *)
let send_accepted t n =
  let len = Log.length t.dur.log in
  t.acked_idx <- len;
  t.ack_pending <- false;
  t.send ~dst:n.Ballot.pid (Accepted { n; log_idx = len })

let on_accept_sync t ~n ~sync_idx ~suffix ~l_decided_idx ~snapshot =
  if
    Ballot.equal n t.dur.prom_rnd
    && (Option.is_some snapshot
       || sync_idx <= Log.length t.dur.log
          && sync_idx >= Log.first_idx t.dur.log)
  then begin
    t.dur.acc_rnd <- n;
    (match snapshot with
    | Some snap ->
        (* Install the state snapshot (the log restarts at its index; the
           application restores its state machine from the payload) —
           unless it is stale, in which case only the suffix is adopted. *)
        adopt_snapshot_suffix t snap ~suffix
    | None -> sync_log t ~at:sync_idx suffix ~skip:0);
    trace_accepted t n;
    send_accepted t n;
    advance_decided t l_decided_idx
  end

(* Accepts carry their starting log index: re-deliveries overlap and are
   deduplicated, and a batch that would create a gap (messages lost without a
   session drop observed yet) is ignored — the session-reset path resyncs. *)
let on_accept t ~n ~start_idx ~entries ~l_decided_idx =
  if
    Ballot.equal n t.dur.prom_rnd
    && Ballot.equal n t.dur.acc_rnd
    && role_is_follower t.role
    && start_idx <= Log.length t.dur.log
  then begin
    let before = Log.length t.dur.log in
    Log.append_slice t.dur.log entries ~skip:(before - start_idx);
    let len = Log.length t.dur.log in
    (* A stop-sign ends its round's log and the leader proposes nothing
       after one, while a batch ends at most at the leader's log end: a
       stop-sign an Accept brings can only be the last entry it appended.
       ([sync_log] scans, since an AcceptSync may overwrite one.) *)
    if
      len > before
      && Option.is_none t.ss_idx
      && Entry.is_stop_sign (Log.get t.dur.log (len - 1))
    then t.ss_idx <- Some (len - 1);
    trace_accepted t n;
    (* Ack coalescing (adaptive policy): acknowledge at most once per
       [ack_every] appended entries; anything deferred is swept by the next
       tick's [flush]. The fixed policy acknowledges every batch. *)
    let b = t.batching in
    if
      (not b.Batching.adaptive)
      || b.Batching.ack_every <= 1
      || len - t.acked_idx >= b.Batching.ack_every
    then send_accepted t n
    else t.ack_pending <- true;
    advance_decided t l_decided_idx
  end

let on_accepted t ~src ~n ~f_log_idx =
  if Ballot.equal n t.dur.prom_rnd && role_is_leader_accept t.role then begin
    t.acc_idx.(src) <- max t.acc_idx.(src) f_log_idx;
    try_decide t
  end

let on_decide_msg t ~n ~l_decided_idx =
  if Ballot.equal n t.dur.prom_rnd && Ballot.equal n t.dur.acc_rnd then
    advance_decided t l_decided_idx

let on_trim t ~n ~trim_idx =
  let trim_idx = trim_cap t ~upto:trim_idx in
  if
    Ballot.equal n t.dur.prom_rnd
    && trim_idx <= t.dur.decided_idx
    && trim_idx <= Log.length t.dur.log
  then
    Store.trim t.dur.store t.dur.log ~node:t.id ~upto:trim_idx ~taken:false

(* Log compaction (§6 / the omnipaxos crate's [trim]): the leader may
   discard a decided prefix once every server has accepted it, and tells
   the followers to do the same. Returns [false] when some server has not
   confirmed the entries yet. *)
let request_trim t ~upto =
  let upto = trim_cap t ~upto in
  let all_peers_accepted =
    List.for_all (fun p -> t.acc_idx.(p) >= 0 && t.acc_idx.(p) >= upto) t.peers
  in
  if role_is_leader_accept t.role && upto <= t.dur.decided_idx
     && all_peers_accepted
  then begin
    broadcast_trim t ~upto ~taken:false;
    true
  end
  else false

let resend_prepare_to t ~dst =
  (* The peer lost messages (session drop or recovery): treat it as
     unpromised and restart its synchronisation from a fresh Prepare. *)
  t.synced.(dst) <- false;
  t.acc_idx.(dst) <- -1;
  t.sent_idx.(dst) <- -1;
  Quorum.remove t.promised dst;
  t.send ~dst (prepare t)

(* A shipped snapshot is decoded on receipt: a Promise or AcceptSync whose
   snapshot does not decode is dropped whole, before it is counted, acked
   or changes any state. *)
let decode_snapshot = function
  | None -> Ok None
  | Some (idx, payload) -> Result.map Option.some (Store.decode ~idx payload)

(* Simnet and [Rsm.Reconfig] route messages within one configuration: a
   non-member's messages and session resets are dropped. *)
let handle t ~src msg =
  if Quorum.is_member t.members src then
    match msg with
    | Prepare { n; acc_rnd; log_idx; decided_idx } ->
        on_prepare t ~src ~n ~l_acc_rnd:acc_rnd ~l_log_idx:log_idx
          ~l_decided_idx:decided_idx
    | Promise
        { n; acc_rnd; log_idx; decided_idx; suffix_from; suffix; snapshot }
      -> (
        match decode_snapshot snapshot with
        | Ok p_snapshot ->
            on_promise t ~src ~n
              ~info:
                {
                  p_acc_rnd = acc_rnd;
                  p_log_idx = log_idx;
                  p_decided_idx = decided_idx;
                  p_suffix_from = suffix_from;
                  p_suffix = suffix;
                  p_snapshot;
                }
        | Error _ -> ())
    | Accept_sync { n; sync_idx; suffix; decided_idx; snapshot } -> (
        match decode_snapshot snapshot with
        | Ok snapshot ->
            on_accept_sync t ~n ~sync_idx ~suffix ~l_decided_idx:decided_idx
              ~snapshot
        | Error _ -> ())
    | Accept { n; start_idx; entries; decided_idx; size = _ } ->
        on_accept t ~n ~start_idx ~entries ~l_decided_idx:decided_idx
    | Accepted { n; log_idx } -> on_accepted t ~src ~n ~f_log_idx:log_idx
    | Decide { n; decided_idx } ->
        on_decide_msg t ~n ~l_decided_idx:decided_idx
    | Trim { n; trim_idx } -> on_trim t ~n ~trim_idx
    | Prepare_req -> if is_leader t then resend_prepare_to t ~dst:src

(* One flush: per promised follower, send the entries proposed since its
   last batch, capped per Accept ([batch_cap] under the adaptive policy,
   [max_batch] under the fixed one) — a backlog larger than one cap streams
   as a pipeline of batches across successive flushes. The Accept message
   (its slice of the log and its size) is built once per
   [(start_idx, count)] run:
   in the steady state every follower sits at the same position, so one
   immutable batch is handed to all of them. The adaptive cap is AIMD: it
   doubles towards [max_batch] while flushes run at capacity and halves
   towards [min_batch] once the backlog drains, so frame sizes track the
   offered load. *)
let do_flush t ~trigger =
  let b = t.batching in
  let cap = if b.Batching.adaptive then t.batch_cap else b.Batching.max_batch in
  let len = Log.length t.dur.log in
  let max_lag = ref 0 in
  let sent_entries = ref 0 in
  let sent_followers = ref 0 in
  let shared = ref None in
  let floor = Log.first_idx t.dur.log in
  for f = 0 to Array.length t.synced - 1 do
    if t.synced.(f) then begin
      let from = if t.sent_idx.(f) < 0 then len else t.sent_idx.(f) in
      if from < floor then
        (* The follower's unsent backlog starts below the trim point (it
           lagged past a compaction): the entries are gone, so repair it
           with an AcceptSync, which ships the snapshot. *)
        send_accept_sync t ~dst:f ~wanted:from
      else if from < len then begin
        max_lag := max !max_lag (len - from);
        let count = min cap (len - from) in
        sent_entries := !sent_entries + count;
        incr sent_followers;
        trace_accept_sent t ~start_idx:from ~count;
        let accept =
          match !shared with
          | Some (s_from, s_count, m) when s_from = from && s_count = count -> m
          | Some _ | None ->
              let m =
                accept ~n:t.dur.prom_rnd ~start_idx:from
                  ~entries:(Log.slice t.dur.log ~pos:from ~len:count)
                  ~decided_idx:t.dur.decided_idx
              in
              shared := Some (from, count, m);
              m
        in
        t.send ~dst:f accept;
        t.sent_idx.(f) <- from + count
      end
    end
  done;
  if !sent_followers > 0 && Obs.Trace.on_kind Obs.Event.batch_flush_tag then
    Obs.Trace.emit ~node:t.id
      (Obs.Event.Batch_flush
         {
           entries = !sent_entries;
           followers = !sent_followers;
           cap;
           trigger;
         });
  if b.Batching.adaptive then begin
    let before = t.batch_cap in
    if !max_lag >= t.batch_cap then
      t.batch_cap <- min b.Batching.max_batch (2 * t.batch_cap)
    else if 2 * !max_lag <= t.batch_cap then
      t.batch_cap <- max b.Batching.min_batch (t.batch_cap / 2);
    if t.batch_cap <> before && Obs.Trace.on () then
      Obs.Trace.emit ~node:t.id
        (Obs.Event.Cap_change { cap_from = before; cap_to = t.batch_cap })
  end;
  t.unflushed <- 0;
  if Quorum.quorum t.members = 1 then try_decide t

(* Follower half of ack coalescing: a deferred Accepted is swept out on the
   next tick, bounding the extra decide latency by one tick period. *)
let flush_acks t =
  if t.ack_pending then begin
    t.ack_pending <- false;
    if
      role_is_follower t.role
      && Ballot.equal t.dur.prom_rnd t.dur.acc_rnd
      && t.dur.prom_rnd.Ballot.pid <> t.id
    then send_accepted t t.dur.prom_rnd
  end

let propose t entry =
  match t.role with
  | Follower -> false
  | Leader_prepare ->
      if Option.is_some t.ss_idx then false
      else begin
        Queue.add entry t.buffer;
        true
      end
  | Leader_accept ->
      if Option.is_some t.ss_idx then false
      else begin
        append_entry t entry;
        trace_proposed t entry;
        t.unflushed <- t.unflushed + 1;
        (* Size trigger: under the adaptive policy a burst is flushed as
           soon as it fills the current batch cap, without waiting for the
           tick deadline. *)
        if t.batching.Batching.adaptive && t.unflushed >= t.batch_cap then
          do_flush t ~trigger:"size";
        true
      end

let flush t =
  if role_is_leader_accept t.role then do_flush t ~trigger:"deadline"
  else flush_acks t

let recover t =
  t.role <- Follower;
  List.iter (fun peer -> t.send ~dst:peer Prepare_req) t.peers

let session_reset t ~peer =
  if not (Quorum.is_member t.members peer) then ()
  else if is_leader t then resend_prepare_to t ~dst:peer
  else t.send ~dst:peer Prepare_req

(* Model-checker support (lib/mcheck). [copy] is a record literal and
   [state_key] a record pattern naming every field, so a new field fails to
   compile here until it is copied and keyed. *)

let copy_persistent { log; prom_rnd; acc_rnd; decided_idx; store } =
  let log = Log.copy log and store = Store.copy store in
  { log; prom_rnd; acc_rnd; decided_idx; store }

let copy t =
  {
    id = t.id;
    peers = t.peers;
    members = t.members;
    dur = copy_persistent t.dur;
    send = t.send;
    on_decide = t.on_decide;
    on_snapshot = t.on_snapshot;
    batching = t.batching;
    compaction = t.compaction;
    role = t.role;
    promised = Quorum.copy t.promised;
    promise = Array.copy t.promise;
    buffer = Queue.copy t.buffer;
    synced = Array.copy t.synced;
    acc_idx = Array.copy t.acc_idx;
    sent_idx = Array.copy t.sent_idx;
    batch_cap = t.batch_cap;
    unflushed = t.unflushed;
    acked_idx = t.acked_idx;
    ack_pending = t.ack_pending;
    ss_idx = t.ss_idx;
  }

(* A slice as a fresh slice of just its entries: a slice of a log shares
   the log's whole array, so two equal slices can marshal differently. *)
let canonical s = Log.slice_of_list (Log.slice_to_list s)

(* Marshalled without sharing, equal data gives equal bytes. Callbacks are
   not state, [members] follows from [id] and [peers], and only the
   promises of members in [promised] are. *)
let state_key
    {
      id;
      peers;
      members = _;
      dur = { log; prom_rnd; acc_rnd; decided_idx; store };
      send = _;
      on_decide = _;
      on_snapshot = _;
      batching;
      compaction;
      role;
      promised;
      promise;
      buffer;
      synced;
      acc_idx;
      sent_idx;
      batch_cap;
      unflushed;
      acked_idx;
      ack_pending;
      ss_idx;
    } =
  let promises = ref [] in
  let keyed src info =
    promises := (src, { info with p_suffix = canonical info.p_suffix })
                :: !promises
  in
  Quorum.iter (fun src -> Option.iter (keyed src) promise.(src)) promised;
  Marshal.to_string
    ( (id, peers, Log.first_idx log, Log.to_list log),
      (prom_rnd, acc_rnd, decided_idx, Store.key store),
      (batching, compaction),
      (role, List.rev !promises),
      (List.of_seq (Queue.to_seq buffer), synced, acc_idx, sent_idx),
      (batch_cap, unflushed, acked_idx, ack_pending, ss_idx)
    )
    [ Marshal.No_sharing ]

let msg_key m =
  let m =
    match m with
    | Promise p -> Promise { p with suffix = canonical p.suffix }
    | Accept_sync a -> Accept_sync { a with suffix = canonical a.suffix }
    | Accept a -> Accept { a with entries = canonical a.entries }
    | Prepare _ | Accepted _ | Decide _ | Trim _ | Prepare_req -> m
  in
  Marshal.to_string m [ Marshal.No_sharing ]

let msg_size = function
  | Prepare _ -> 57
  | Promise { suffix; snapshot; _ } ->
      65 + entries_size suffix 0 0
      + (match snapshot with Some (_, p) -> 16 + String.length p | None -> 0)
  | Accept_sync { suffix; snapshot; _ } ->
      49 + entries_size suffix 0 0
      + (match snapshot with Some (_, p) -> 16 + String.length p | None -> 0)
  | Accept { size; _ } -> size
  | Accepted _ -> 33
  | Decide _ -> 33
  | Trim _ -> 33
  | Prepare_req -> 9
