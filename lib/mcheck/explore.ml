(** Bounded explicit-state model checking of the Sequence Paxos that runs.

    A world is three real {!Omnipaxos.Sequence_paxos} instances with their
    sends captured into per-(src, dst) FIFO queues. Its successors deliver
    a queue head (or drop it, under [allow_drops]), flush a node, or fire a
    pending leader event, proposal or session reset, each once. In every
    reachable world the explorer checks, against the chosen log (a ghost:
    the first entry any node decides at each index, read in [on_decide]
    before compaction can trim it):

    - SC1 (validity): every log entry is a proposed command;
    - SC2 (uniform agreement): every entry a node decides is the chosen one;
    - SC3 (integrity): decided indexes never fall and decided entries never
      change;
    - the application: each node's KV state machine, fed by [on_decide] and
      replaced by [on_snapshot] under a never-rewind cursor (the rule
      {!Omnipaxos.Compaction.Store} keeps for the node's own store), is the
      fold of the chosen prefix up to its decided index, and no snapshot
      a node installs covers no more than the prefix it already decided.
      It is kept apart from the node's store on purpose: an oracle that is
      the code under check would check nothing. *)

module Sp = Omnipaxos.Sequence_paxos
module Entry = Omnipaxos.Entry
module Kv = Replog.Kv

type config = {
  leader_events : (int * Omnipaxos.Ballot.t) list;
      (** [(node, ballot)]: [handle_leader] *)
  proposals : (int * int) list;  (** [(node, command id)]: [propose] *)
  session_resets : (int * int) list;
      (** [(a, b)]: both queues between [a] and [b] are cleared and both
          ends get [session_reset] *)
  allow_drops : bool;
  max_states : int;
}

type result = {
  states : int;
  installs : int;  (** states first reached by a snapshot install *)
  truncated : bool;  (** hit [max_states] before exhausting the space *)
  violation : string option;  (** description of the first violation *)
}

type event =
  | Lead of int * Omnipaxos.Ballot.t
  | Prop of int * int
  | Sess of int * int

type step =
  | Deliver of int * int  (** the head of the (src, dst) queue *)
  | Drop of int * int
  | Flush of int
  | Fire of int  (** the external event at this position *)
  | Forge of int * int * Sp.msg  (** a message nobody sent; never explored *)

let n_nodes = 3

(* Constants, not inputs: fixed batching is the default policy, and a
   trim on every decide that retains one entry makes snapshot installs
   reachable within these bounds — with a session reset, a duplicate one:
   the leader answers two Promises of the reset node with the same
   snapshot, and the second finds the first applied, which a build
   without the stale-install guard re-installs. A shipped snapshot covers
   the sender's decided prefix, so one below the receiver's decided index
   (a KV rollback) is out of reach here. *)
let batching = Omnipaxos.Batching.fixed
let compaction = Omnipaxos.Compaction.make ~retain:1 1

let command c =
  Entry.Cmd
    (Replog.Command.make ~id:c (Replog.Command.Kv_put ("k", string_of_int c)))

(* A node: an instance and its application (a KV store, its
   [Kv.snapshot], and the decided-entry cursor that feeds it), interned as
   [id]. Nodes are shared between worlds and never mutated: a step runs on
   copies of the nodes it touches. *)
type node = { sp : Sp.t; app : Kv.t; app_key : string; cursor : int; id : int }

type world = {
  nodes : node array;
  queues : (Sp.msg * int) list array;  (** [src * n_nodes + dst], with ids *)
  pending : int;  (** bitmask of the events not yet fired *)
  chosen : Entry.t array;
}

(* The explorer and the scratch of the step in progress ([live] to [bad]).
   The copies of node [i] share one set of callbacks, which work on slot
   [i]; [app] is copied on its first write. [fired] marks a step whose
   outcome depends on more than its nodes and input, so [memo], keyed by
   node ids, step and delivered message id, does not keep it. *)
type explorer = {
  cfg : config;
  commands : Entry.t list;
  events : event array;
  ids : (string, int) Hashtbl.t;  (** interned node and message keys *)
  memo :
    ( int list * step * int,
      (int * node) list * (int * int * Sp.msg * int) list )
    Hashtbl.t;
  mutable live : Sp.t array;
  app : Kv.t array;
  dirty : bool array;
  cursor : int array;
  mutable chosen_now : Entry.t array;
  mutable out : (int * int * Sp.msg) list;
  mutable fired : bool;
  mutable installed : bool;
  mutable bad : string option;
}

let fail ex fmt =
  Printf.ksprintf (fun m -> if Option.is_none ex.bad then ex.bad <- Some m) fmt

let show e = Format.asprintf "%a" Entry.pp e

let apply_entry kv = function
  | Entry.Cmd c -> ( match Kv.apply kv c with Kv.Ok_unit | Kv.Value _ -> ())
  | Entry.Stop_sign _ -> ()

let on_decide ex i upto =
  let from = max ex.cursor.(i) (Sp.first_idx ex.live.(i)) in
  if upto > from then begin
    ex.fired <- true;
    if not ex.dirty.(i) then ex.app.(i) <- Kv.copy ex.app.(i);
    ex.dirty.(i) <- true;
    let j = ref from in
    Sp.iter_decided ex.live.(i) ~from ~upto (fun e ->
        let n = Array.length ex.chosen_now in
        if !j = n then ex.chosen_now <- Array.append ex.chosen_now [| e |]
        else if !j > n then fail ex "SC2: node %d decided past the chosen log" i
        else if not (Entry.equal ex.chosen_now.(!j) e) then
          fail ex "SC2: node %d decided %s at index %d, where %s was decided"
            i (show e) !j
            (show ex.chosen_now.(!j));
        apply_entry ex.app.(i) e;
        incr j);
    ex.cursor.(i) <- upto
  end

(* The cursor is the decided prefix the application already holds: a
   snapshot that covers no more of it is stale, and installing one would
   roll the state back (or, at equal index, restore what it holds). *)
let on_snapshot ex i idx payload =
  ex.fired <- true;
  ex.installed <- true;
  if idx <= ex.cursor.(i) then
    fail ex "app: node %d installed a snapshot of [0, %d) over its [0, %d)" i
      idx ex.cursor.(i);
  (match Replog.Snapshot.decode payload with
  | Ok s ->
      ex.app.(i) <- Replog.Snapshot.restore s;
      ex.dirty.(i) <- true
  | Error e -> fail ex "app: node %d got an undecodable snapshot (%s)" i e);
  ex.cursor.(i) <- max ex.cursor.(i) idx

let marshal v = Marshal.to_string v [ Marshal.No_sharing ]

let intern ex v =
  let key = marshal v in
  match Hashtbl.find_opt ex.ids key with
  | Some id -> id
  | None ->
      let id = Hashtbl.length ex.ids in
      Hashtbl.add ex.ids key id;
      id

let make_node ex sp app app_key cursor =
  let id = intern ex (Sp.state_key sp, app_key, cursor) in
  { sp; app; app_key; cursor; id }

let make cfg =
  let events =
    List.map (fun (i, b) -> Lead (i, b)) cfg.leader_events
    @ List.map (fun (i, c) -> Prop (i, c)) cfg.proposals
    @ List.map (fun (a, b) -> Sess (a, b)) cfg.session_resets
  in
  let empty = Kv.create () in
  let ex =
    {
      cfg;
      commands = List.map (fun (_, c) -> command c) cfg.proposals;
      events = Array.of_list events;
      ids = Hashtbl.create 4096;
      memo = Hashtbl.create 4096;
      live = [||];
      app = Array.make n_nodes empty;
      dirty = Array.make n_nodes false;
      cursor = Array.make n_nodes 0;
      chosen_now = [||];
      out = [];
      fired = false;
      installed = false;
      bad = None;
    }
  in
  ex.live <-
    Array.init n_nodes (fun i ->
        Sp.create ~id:i
          ~peers:(List.filter (fun j -> j <> i) (List.init n_nodes Fun.id))
          ~persistent:(Sp.fresh_persistent ()) ~batching ~compaction
          ~send:(fun ~dst m -> ex.out <- (i, dst, m) :: ex.out)
          ~on_decide:(on_decide ex i) ~on_snapshot:(on_snapshot ex i) ());
  let node sp = make_node ex sp empty (Kv.snapshot empty) 0 in
  ( ex,
    {
      nodes = Array.map node ex.live;
      queues = Array.make (n_nodes * n_nodes) [];
      pending = (1 lsl List.length events) - 1;
      chosen = [||];
    } )

let steps ex w =
  let links =
    List.filter_map
      (fun q ->
        match w.queues.(q) with
        | [] -> None
        | _ :: _ -> Some (q / n_nodes, q mod n_nodes))
      (List.init (n_nodes * n_nodes) Fun.id)
  in
  List.map (fun (s, d) -> Deliver (s, d)) links
  @ (if ex.cfg.allow_drops then List.map (fun (s, d) -> Drop (s, d)) links
     else [])
  @ List.init n_nodes (fun i -> Flush i)
  @ List.filter_map
      (fun k -> if w.pending land (1 lsl k) <> 0 then Some (Fire k) else None)
      (List.init (Array.length ex.events) Fun.id)

let touches ex = function
  | Deliver (_, d) | Forge (_, d, _) -> [ d ]
  | Drop _ -> []
  | Flush i -> [ i ]
  | Fire k -> (
      match ex.events.(k) with
      | Lead (i, _) | Prop (i, _) -> [ i ]
      | Sess (a, b) -> [ a; b ])

(* Run the real code of [step] on copies of the [touched] nodes: their new
   versions, and the sends (oldest first, with interned ids). *)
let run_step ex w step touched =
  List.iter
    (fun i ->
      let nd = w.nodes.(i) in
      ex.live.(i) <- Sp.copy nd.sp;
      ex.app.(i) <- nd.app;
      ex.dirty.(i) <- false;
      ex.cursor.(i) <- nd.cursor)
    touched;
  ex.out <- [];
  ex.fired <- false;
  (match step with
  | Deliver (src, dst) -> (
      match w.queues.((src * n_nodes) + dst) with
      | (m, _) :: _ -> Sp.handle ex.live.(dst) ~src m
      | [] -> ())
  | Forge (src, dst, m) -> Sp.handle ex.live.(dst) ~src m
  | Drop _ -> ()
  | Flush i -> Sp.flush ex.live.(i)
  | Fire k -> (
      match ex.events.(k) with
      | Lead (i, b) -> Sp.handle_leader ex.live.(i) b
      | Prop (i, c) -> ignore (Sp.propose ex.live.(i) (command c))
      | Sess (a, b) ->
          Sp.session_reset ex.live.(a) ~peer:b;
          Sp.session_reset ex.live.(b) ~peer:a));
  let node i =
    let app = ex.app.(i) in
    let app_key =
      if ex.dirty.(i) then Kv.snapshot app else w.nodes.(i).app_key
    in
    (i, make_node ex ex.live.(i) app app_key ex.cursor.(i))
  in
  ( List.map node touched,
    List.rev_map (fun (s, d, m) -> (s, d, m, intern ex (Sp.msg_key m))) ex.out )

(* The world after [step], sharing every untouched node and queue with
   [w], and the nodes the step changed; [ex] holds what the callbacks saw. *)
let apply ex w step =
  ex.chosen_now <- w.chosen;
  ex.installed <- false;
  ex.bad <- None;
  let touched = touches ex step in
  let q s d = (s * n_nodes) + d in
  let head =
    match step with
    | Deliver (s, d) -> (
        match w.queues.(q s d) with (_, id) :: _ -> id | [] -> -1)
    | Drop _ | Flush _ | Fire _ | Forge _ -> -1
  in
  let key = (List.map (fun i -> w.nodes.(i).id) touched, step, head) in
  let changed, sent =
    match Hashtbl.find_opt ex.memo key with
    | Some outcome -> outcome
    | None ->
        let outcome = run_step ex w step touched in
        if not ex.fired then Hashtbl.replace ex.memo key outcome;
        outcome
  in
  let queues = Array.copy w.queues and nodes = Array.copy w.nodes in
  let pending =
    match step with
    | Deliver (s, d) | Drop (s, d) ->
        queues.(q s d) <- (match queues.(q s d) with _ :: r -> r | [] -> []);
        w.pending
    | Fire k ->
        (match ex.events.(k) with
        | Sess (a, b) ->
            queues.(q a b) <- [];
            queues.(q b a) <- []
        | Lead _ | Prop _ -> ());
        w.pending land lnot (1 lsl k)
    | Flush _ | Forge _ -> w.pending
  in
  List.iter
    (fun (s, d, m, id) -> queues.(q s d) <- queues.(q s d) @ [ (m, id) ])
    sent;
  List.iter (fun (i, nd) -> nodes.(i) <- nd) changed;
  ({ nodes; queues; pending; chosen = ex.chosen_now }, changed)

(* SC1 and SC3 on the nodes a step changed, then the application check,
   which only a callback can make fail: a node whose KV state and decided
   index did not move passed it on the way here. *)
let check ex ~before (w, changed) =
  let fold dec =
    let kv = Kv.create () in
    Array.iteri (fun j e -> if j < dec then apply_entry kv e) w.chosen;
    Kv.snapshot kv
  in
  let node_error (i, nd) =
    let log = Sp.read_log nd.sp and dec = Sp.decided_idx nd.sp in
    let old = before.nodes.(i) in
    let was = Sp.decided_idx old.sp in
    let chosen = Array.length w.chosen in
    let err = ref None in
    let report fmt = Printf.ksprintf (fun m -> err := Some m) fmt in
    Replog.Log.iteri_from log ~from:0 (fun j e ->
        if Option.is_some !err then ()
        else if not (List.exists (Entry.equal e) ex.commands) then
          report "SC1: node %d holds %s at %d, which nobody proposed" i
            (show e) j
        else if j < min dec chosen && not (Entry.equal e w.chosen.(j)) then
          report "SC3: node %d's decided entry at index %d changed" i j);
    if Option.is_some !err then !err
    else if dec < was then
      Some (Printf.sprintf "SC3: node %d's decided index fell to %d" i dec)
    else if dec > chosen then
      Some (Printf.sprintf "SC3: node %d decided past the chosen log" i)
    else if dec = was && String.equal nd.app_key old.app_key then None
    else if not (String.equal nd.app_key (fold dec)) then
      Some
        (Printf.sprintf "app: node %d's KV state is %S, its decided prefix %S"
           i nd.app_key (fold dec))
    else None
  in
  match ex.bad with
  | Some _ as bad -> bad
  | None -> List.find_map node_error changed

let run cfg =
  let ex, w0 = make cfg in
  let key w =
    let ids = Array.map (fun nd -> nd.id) w.nodes in
    marshal (ids, Array.map (List.map snd) w.queues, w.pending, w.chosen)
  in
  let visited = Hashtbl.create 65536 in
  let installs = ref 0 and truncated = ref false and violation = ref None in
  (* Depth-first; the depth is bounded by the messages a run can send. *)
  let rec visit w =
    List.iter
      (fun step ->
        if Option.is_none !violation then
          let ((w', _) as next) = apply ex w step in
          match check ex ~before:w next with
          | Some _ as v -> violation := v
          | None ->
              let k = key w' in
              if not (Hashtbl.mem visited k) then
                if Hashtbl.length visited >= cfg.max_states then
                  truncated := true
                else begin
                  Hashtbl.replace visited k ();
                  if ex.installed then incr installs;
                  visit w'
                end)
      (steps ex w)
  in
  Hashtbl.replace visited (key w0) ();
  visit w0;
  let states = Hashtbl.length visited in
  let truncated = !truncated and violation = !violation in
  { states; installs = !installs; truncated; violation }

let ballot n pid = { Omnipaxos.Ballot.n; priority = 0; pid }

(* The configurations of test_mcheck and of the [mcheck] bench section. *)
let default_configs =
  let single = [ (0, ballot 1 0) ] in
  let competing = [ (0, ballot 1 0); (1, ballot 2 1) ] in
  let cfg ?(session_resets = []) ~drops leader_events proposals =
    let max_states = 1_000_000 in
    let allow_drops = drops in
    { leader_events; proposals; session_resets; allow_drops; max_states }
  in
  [
    ( "single leader, two proposals",
      cfg ~drops:false single [ (0, 11); (0, 22) ] );
    ("single leader with drops", cfg ~drops:true single [ (0, 11); (0, 22) ]);
    ("competing leaders", cfg ~drops:false competing [ (0, 11); (1, 22) ]);
    ("competing leaders with drops", cfg ~drops:true competing [ (0, 11) ]);
    ( "session reset after compaction",
      cfg ~drops:false ~session_resets:[ (0, 2) ] single [ (0, 11); (0, 22) ]
    );
  ]
