(* Deterministic trace analyzer. Consumes a recorded event stream
   (in-memory ring, trace file or stdin) and produces a report: per-node
   leader timelines, stall windows, commit-latency percentiles with the span
   phase breakdown, causal-DAG statistics, the causal critical path of the
   slowest decided entries, health alerts/recovery episodes and invariant
   results.

   The analysis itself is a single incremental fold with bounded state
   ({!Stream}): spans are finalised as the decided watermark passes them,
   the causal monitor keeps only open sends, critical paths come from a
   bounded window of recent events, and past [exact_limit] commit latencies
   the percentiles switch to a log-bucket sketch. [run] is that same fold
   with the bounds lifted. Two runs over the same trace render
   byte-identical reports (wired into the determinism gate), so reports can
   be diffed and regression-gated. *)

module J = Bench_report.Json

type stall = { stall_from : float; stall_until : float option }

type commit_stats = {
  spans_total : int;
  spans_decided : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max_ms : float;
  mean_queueing : float;
  mean_replication : float;
  mean_commit : float;
}

type hop = { hop_time : float; hop_node : int; hop_desc : string }

type path = {
  path_log_idx : int;
  path_total_ms : float;
  path_hops : hop list;
}

type report = {
  n : int;
  events : int;
  ring_dropped : int;
  ring_dropped_by_kind : (string * int) list;
  sampling : (string * int) list;
  t_start : float;
  t_end : float;
  by_kind : (string * int) list;
  drops_by_reason : (string * int) list;
  leader_timeline : (int * (float * Event.ballot) list) list;
  stall_ms : float;
  stalls : stall list;
  commit : commit_stats option;
  causal_edges : int;
  unmatched_sends : int;
  orphan_delivers : int;
  lamport : (unit, string) result;
  critical_paths : path list;
  health_alerts : Health.alert list;
  recoveries : Health.recovery list;
  invariants : (string * (unit, Invariant.violation) result) list;
}

let count_by tbl key =
  let prev = Option.value (Hashtbl.find_opt tbl key) ~default:0 in
  Hashtbl.replace tbl key (prev + 1)

(* Exact percentile over a sorted array: the smallest element covering
   fraction [p] of the population. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.round (p *. float_of_int n +. 0.5)) - 1 in
    sorted.(min (n - 1) (max 0 rank))

let hop_desc (e : Event.t) =
  match e.kind with
  | Event.Proposed { log_idx; cmd_id } ->
      Some (Printf.sprintf "proposed idx=%d cmd=%d" log_idx cmd_id)
  | Event.Batch_flush { entries; trigger; _ } ->
      Some (Printf.sprintf "batch_flush entries=%d trigger=%s" entries trigger)
  | Event.Accept_sent { start_idx; count; _ } ->
      Some (Printf.sprintf "accept start=%d count=%d" start_idx count)
  | Event.Msg_send { dst; send_id; _ } ->
      Some (Printf.sprintf "send #%d -> %d" send_id dst)
  | Event.Msg_deliver { src; send_id; _ } ->
      Some (Printf.sprintf "deliver #%d <- %d" send_id src)
  | Event.Accepted_idx { log_idx; _ } ->
      Some (Printf.sprintf "accepted idx=%d" log_idx)
  | Event.Decided { decided_idx; _ } ->
      Some (Printf.sprintf "decide idx=%d" decided_idx)
  | Event.Prepare_round _ -> Some "prepare"
  | Event.Promise_sent _ -> Some "promise"
  (* Other kinds are not part of the commit pipeline; elide them from the
     rendered path. *)
  | _ [@lint.allow "D4"] -> None

(* The causal chain that gated the decision of entry [log_idx]: back-walk
   from the first Decided event past its index, stopping at its Proposed
   event. Only pipeline-relevant hops are rendered, capped to the last
   [max_hops]. *)
let critical_path_of ~max_hops events_arr ~log_idx ~total =
  let n = Array.length events_arr in
  let target = ref (-1) in
  (let i = ref 0 in
   while !target < 0 && !i < n do
     (match events_arr.(!i).Event.kind with
     | Event.Decided { decided_idx; _ } when decided_idx > log_idx ->
         target := !i
     (* Scanning for the decide that covered this entry. *)
     | _ [@lint.allow "D4"] -> ());
     incr i
   done);
  if !target < 0 then None
  else begin
    let stop (e : Event.t) =
      match e.kind with
      | Event.Proposed { log_idx = li; _ } -> li = log_idx
      (* Keep walking until the proposal that started the span. *)
      | _ [@lint.allow "D4"] -> false
    in
    let idxs = Causal.critical_path events_arr ~target:!target ~stop in
    let hops =
      List.filter_map
        (fun i ->
          let e = events_arr.(i) in
          Option.map
            (fun desc ->
              {
                hop_time = e.Event.time;
                hop_node = e.Event.node;
                hop_desc = desc;
              })
            (hop_desc e))
        idxs
    in
    let len = List.length hops in
    let hops =
      if len <= max_hops then hops
      else List.filteri (fun i _ -> i >= len - max_hops) hops
    in
    Some { path_log_idx = log_idx; path_total_ms = total; path_hops = hops }
  end

(* ------------------------------------------------------------------ *)
(* Streaming analyzer                                                  *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  type t = {
    health_cfg : Health.config;
    n_hint : int option;  (* the cluster size, when known *)
    exact_limit : int;
    (* running basics *)
    mutable seen : int;
    mutable max_node : int;
    mutable t_start : float option;
    mutable t_end : float;
    kinds : (string, int) Hashtbl.t;
    drop_reasons : (string, int) Hashtbl.t;
    timeline : (int, (float * Event.ballot) list) Hashtbl.t;
    (* stall windows, emitted as the decided watermark advances *)
    mutable decided_max : int;
    mutable last_advance : float;
    mutable stalls_rev : stall list;
    (* commit-latency spans *)
    tracker : Span.Tracker.t;
    mutable exact_totals : float list;  (* newest-first, <= exact_limit *)
    mutable exact_kept : int;
    sketch : Metric.Histogram.t;
    mutable n_decided : int;
    mutable max_total : float;
    mutable sum_queueing : float;
    mutable sum_replication : float;
    mutable sum_commit : float;
    mutable n_queueing : int;
    mutable n_replication : int;
    mutable n_commit : int;
    mutable top : (float * int) list;  (* slowest 3: (total, idx) *)
    (* causal structure *)
    causal : Causal.Monitor.t;
    recent : Event.t Ring.t;  (* critical-path window *)
    (* detectors *)
    health : Health.t;
    invariants : Invariant.Monitor.t;
  }

  let create ?health ?n_hint ?(window = 65_536) ?(exact_limit = 65_536)
      ?(causal_cap = 262_144) () =
    (* Without a known cluster size (single-pass stdin), the health suspect
       matrix is sized for up to 64 nodes; with [n_hint] (file and in-memory
       paths) it is exact. *)
    let n_for_health = Option.value n_hint ~default:64 in
    let health_cfg =
      match health with
      | Some c ->
          if c.Health.n >= n_for_health then c
          else { c with Health.n = n_for_health }
      | None -> Health.default_config ~n:n_for_health ~election_timeout_ms:50.0
    in
    {
      health_cfg;
      n_hint;
      exact_limit;
      seen = 0;
      max_node = 0;
      t_start = None;
      t_end = 0.0;
      kinds = Hashtbl.create 32;
      drop_reasons = Hashtbl.create 8;
      timeline = Hashtbl.create 8;
      decided_max = 0;
      last_advance = 0.0;
      stalls_rev = [];
      tracker = Span.Tracker.create ();
      exact_totals = [];
      exact_kept = 0;
      sketch = Metric.Histogram.create ();
      n_decided = 0;
      max_total = neg_infinity;
      sum_queueing = 0.0;
      sum_replication = 0.0;
      sum_commit = 0.0;
      n_queueing = 0;
      n_replication = 0;
      n_commit = 0;
      top = [];
      causal = Causal.Monitor.create ~cap:causal_cap ();
      recent = Ring.create ~capacity:(max 1 window);
      health = Health.create health_cfg;
      invariants = Invariant.Monitor.create ();
    }

  let top_cmp (ta, ia) (tb, ib) =
    match Float.compare tb ta with 0 -> Int.compare ia ib | c -> c

  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest

  let note_decided s (c : Span.Tracker.closed) =
    s.n_decided <- s.n_decided + 1;
    let total = c.Span.Tracker.c_total in
    if s.exact_kept < s.exact_limit then begin
      s.exact_totals <- total :: s.exact_totals;
      s.exact_kept <- s.exact_kept + 1
    end;
    Metric.Histogram.observe s.sketch total;
    if total > s.max_total then s.max_total <- total;
    (match c.Span.Tracker.c_queueing with
    | Some v ->
        s.sum_queueing <- s.sum_queueing +. v;
        s.n_queueing <- s.n_queueing + 1
    | None -> ());
    (match c.Span.Tracker.c_replication with
    | Some v ->
        s.sum_replication <- s.sum_replication +. v;
        s.n_replication <- s.n_replication + 1
    | None -> ());
    (match c.Span.Tracker.c_commit with
    | Some v ->
        s.sum_commit <- s.sum_commit +. v;
        s.n_commit <- s.n_commit + 1
    | None -> ());
    s.top <-
      take 3
        (List.sort top_cmp ((total, c.Span.Tracker.c_log_idx) :: s.top))

  let observe s (e : Event.t) =
    s.seen <- s.seen + 1;
    if e.node > s.max_node then s.max_node <- e.node;
    (match s.t_start with
    | None ->
        s.t_start <- Some e.time;
        s.t_end <- e.time;
        s.last_advance <- e.time
    | Some _ -> s.t_end <- Float.max s.t_end e.time);
    count_by s.kinds (Event.kind_name e.kind);
    (match e.kind with
    | Event.Msg_drop { reason; _ } -> count_by s.drop_reasons reason
    | Event.Leader_elected b | Event.Leader_changed b ->
        let prev =
          Option.value (Hashtbl.find_opt s.timeline e.node) ~default:[]
        in
        Hashtbl.replace s.timeline e.node ((e.time, b) :: prev)
    (* Counted above; no dedicated aggregation. *)
    | _ [@lint.allow "D4"] -> ());
    (match e.kind with
    | Event.Decided { decided_idx; _ } ->
        if decided_idx > s.decided_max then begin
          s.decided_max <- decided_idx;
          if e.time -. s.last_advance > s.health_cfg.Health.stall_ms then
            s.stalls_rev <-
              { stall_from = s.last_advance; stall_until = Some e.time }
              :: s.stalls_rev;
          s.last_advance <- e.time
        end
    (* Event-stream filter: only decides advance the index. *)
    | _ [@lint.allow "D4"] -> ());
    let n = Option.value s.n_hint ~default:(1 + s.max_node) in
    let quorum = Replog.Quorum.majority n in
    List.iter (note_decided s) (Span.Tracker.observe s.tracker ~quorum e);
    Causal.Monitor.observe s.causal e;
    Ring.push s.recent e;
    Health.observe s.health e;
    Invariant.Monitor.observe s.invariants e

  let commit_of s =
    if s.n_decided = 0 then None
    else begin
      let p50, p90, p99 =
        if s.n_decided <= s.exact_kept then begin
          let totals = Array.of_list s.exact_totals in
          Array.sort Float.compare totals;
          (percentile totals 0.50, percentile totals 0.90,
           percentile totals 0.99)
        end
        else
          (* Past the exact store: log-bucket sketch percentiles (the mean
             phase breakdown and the max stay exact). *)
          ( Metric.Histogram.percentile s.sketch ~p:50.0,
            Metric.Histogram.percentile s.sketch ~p:90.0,
            Metric.Histogram.percentile s.sketch ~p:99.0 )
      in
      let mean sum = function 0 -> 0.0 | n -> sum /. float_of_int n in
      Some
        {
          spans_total = Span.Tracker.total_spans s.tracker;
          spans_decided = s.n_decided;
          p50;
          p90;
          p99;
          max_ms = s.max_total;
          mean_queueing = mean s.sum_queueing s.n_queueing;
          mean_replication = mean s.sum_replication s.n_replication;
          mean_commit = mean s.sum_commit s.n_commit;
        }
    end

  let finish ?(ring_dropped = 0) ?(ring_dropped_by_kind = []) ?(sampling = [])
      s =
    let t_start = Option.value s.t_start ~default:0.0 in
    let t_end = match s.t_start with None -> 0.0 | Some _ -> s.t_end in
    let stalls =
      List.rev
        (if t_end -. s.last_advance > s.health_cfg.Health.stall_ms then
           { stall_from = s.last_advance; stall_until = None }
           :: s.stalls_rev
         else s.stalls_rev)
    in
    let events_arr = Array.of_list (Ring.to_list s.recent) in
    let critical_paths =
      List.filter_map
        (fun (total, log_idx) ->
          critical_path_of ~max_hops:16 events_arr ~log_idx ~total)
        s.top
    in
    {
      n = 1 + s.max_node;
      events = s.seen;
      ring_dropped;
      ring_dropped_by_kind;
      sampling;
      t_start;
      t_end;
      by_kind =
        Replog.Det.sorted_bindings ~compare_key:String.compare s.kinds;
      drops_by_reason =
        Replog.Det.sorted_bindings ~compare_key:String.compare s.drop_reasons;
      leader_timeline =
        List.map
          (fun (node, l) -> (node, List.rev l))
          (Replog.Det.sorted_bindings ~compare_key:Int.compare s.timeline);
      stall_ms = s.health_cfg.Health.stall_ms;
      stalls;
      commit = commit_of s;
      causal_edges = Causal.Monitor.edges s.causal;
      unmatched_sends = Causal.Monitor.unmatched_sends s.causal;
      orphan_delivers = Causal.Monitor.orphan_delivers s.causal;
      lamport = Causal.Monitor.clocks s.causal;
      critical_paths;
      health_alerts = Health.alerts s.health;
      recoveries = Health.recoveries s.health;
      invariants = Invariant.Monitor.results s.invariants;
    }
end

let run ?health ?(ring_dropped = 0) ?(ring_dropped_by_kind = [])
    ?(sampling = []) events =
  let n =
    1 + List.fold_left (fun acc (e : Event.t) -> max acc e.node) 0 events
  in
  (* The bounds lifted: whole-trace critical-path window, exact percentiles,
     uncapped open-send table. *)
  let s =
    Stream.create ?health ~n_hint:n
      ~window:(max 1 (List.length events))
      ~exact_limit:max_int ~causal_cap:max_int ()
  in
  List.iter (Stream.observe s) events;
  Stream.finish ~ring_dropped ~ring_dropped_by_kind ~sampling s

let prefix_error file = Result.map_error (Printf.sprintf "%s:%s" file)

let with_source file f =
  match open_in_bin file with
  | exception Sys_error msg -> Error (`Open msg)
  | ic ->
      let r =
        match f (Tracebin.of_channel ic) with
        | v -> Result.map_error (fun m -> `Parse m) v
        | exception Tracebin.Decode_error msg -> Error (`Parse msg)
      in
      close_in_noerr ic;
      r

let of_file ?health file =
  (* Two passes: the first infers the cluster size (and pulls the sampling
     rates out of a binary header) so quorum and the health suspect matrix
     are exact; the second streams the events through the analyzer. Memory
     stays bounded on both. *)
  let pass1 =
    with_source file (fun src ->
        let n_max = ref 0 in
        match
          Tracebin.iter src (fun e ->
              if e.Event.node > !n_max then n_max := e.Event.node)
        with
        | Ok () -> Ok (1 + !n_max, Tracebin.meta src)
        | Error msg -> Error msg)
  in
  match pass1 with
  | Error (`Open msg) -> Error msg
  | Error (`Parse msg) -> prefix_error file (Error msg)
  | Ok (n, meta) -> (
      let pass2 =
        with_source file (fun src ->
            let s = Stream.create ?health ~n_hint:n () in
            match Tracebin.iter src (Stream.observe s) with
            | Ok () ->
                Ok
                  (Stream.finish ~sampling:(Sampling.rates_of_meta meta) s)
            | Error msg -> Error msg)
      in
      match pass2 with
      | Error (`Open msg) -> Error msg
      | Error (`Parse msg) -> prefix_error file (Error msg)
      | Ok report -> Ok report)

let of_channel ?health ic =
  match
    let src = Tracebin.of_channel ic in
    let s = Stream.create ?health () in
    match Tracebin.iter src (Stream.observe s) with
    | Ok () ->
        Ok
          (Stream.finish
             ~sampling:(Sampling.rates_of_meta (Tracebin.meta src))
             s)
    | Error msg -> Error msg
  with
  | v -> v
  | exception Tracebin.Decode_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_ms ppf v = Format.fprintf ppf "%.3f" v

let pp ppf r =
  let line fmt = Format.fprintf ppf fmt in
  line "== trace analysis ==@.";
  line "nodes      : %d@." r.n;
  line "events     : %d (ring-dropped %d)@." r.events r.ring_dropped;
  line "time range : %a .. %a ms@." pp_ms r.t_start pp_ms r.t_end;
  if not (List.is_empty r.sampling) then begin
    line "@.-- sampling (emit-time, kept 1 in k) --@.";
    List.iter (fun (k, rate) -> line "  %-16s 1/%d@." k rate) r.sampling;
    line "  counts below are post-sampling for these kinds@."
  end;
  line "@.-- events by kind --@.";
  List.iter (fun (k, c) -> line "  %-16s %d@." k c) r.by_kind;
  if not (List.is_empty r.ring_dropped_by_kind) then begin
    line "@.-- ring drops by kind --@.";
    List.iter (fun (k, c) -> line "  %-16s %d@." k c) r.ring_dropped_by_kind
  end;
  if not (List.is_empty r.drops_by_reason) then begin
    line "@.-- drops by reason --@.";
    List.iter (fun (k, c) -> line "  %-16s %d@." k c) r.drops_by_reason
  end;
  line "@.-- leader timeline --@.";
  if List.is_empty r.leader_timeline then line "  (no leader events)@.";
  List.iter
    (fun (node, changes) ->
      line "  node %d:" node;
      List.iter
        (fun (t, b) -> line " t=%a %a" pp_ms t Event.pp_ballot b)
        changes;
      line "@.")
    r.leader_timeline;
  line "@.-- stall windows (decide gap > %a ms) --@." pp_ms r.stall_ms;
  if List.is_empty r.stalls then line "  (none)@.";
  List.iter
    (fun s ->
      match s.stall_until with
      | Some u ->
          line "  %a .. %a (%a ms)@." pp_ms s.stall_from pp_ms u pp_ms
            (u -. s.stall_from)
      | None -> line "  %a .. end of trace@." pp_ms s.stall_from)
    r.stalls;
  line "@.-- commit latency --@.";
  (match r.commit with
  | None -> line "  (no decided spans)@."
  | Some c ->
      line "  spans: %d decided of %d proposed@." c.spans_decided
        c.spans_total;
      line "  p50 %a ms, p90 %a ms, p99 %a ms, max %a ms@." pp_ms c.p50
        pp_ms c.p90 pp_ms c.p99 pp_ms c.max_ms;
      line
        "  phase means: queueing %a ms, replication %a ms, commit %a ms@."
        pp_ms c.mean_queueing pp_ms c.mean_replication pp_ms c.mean_commit);
  line "@.-- causal DAG --@.";
  line "  edges %d, unmatched sends %d, orphan delivers %d@." r.causal_edges
    r.unmatched_sends r.orphan_delivers;
  (match r.lamport with
  | Ok () -> line "  lamport clocks: consistent@."
  | Error msg -> line "  lamport clocks: VIOLATION (%s)@." msg);
  line "@.-- critical paths (slowest decided entries) --@.";
  if List.is_empty r.critical_paths then line "  (none)@.";
  List.iter
    (fun p ->
      line "  log_idx %d (total %a ms):@." p.path_log_idx pp_ms
        p.path_total_ms;
      List.iter
        (fun h ->
          line "    t=%a node %d %s@." pp_ms h.hop_time h.hop_node h.hop_desc)
        p.path_hops)
    r.critical_paths;
  line "@.-- health --@.";
  if List.is_empty r.health_alerts then line "  (no alerts)@.";
  List.iter
    (fun (a : Health.alert) ->
      line "  t=%a %s %s@." pp_ms a.Health.at
        (match a.Health.edge with
        | Health.Trigger -> "TRIGGER"
        | Health.Clear -> "CLEAR")
        a.Health.what)
    r.health_alerts;
  line "  recoveries:@.";
  if List.is_empty r.recoveries then line "    (none)@.";
  List.iter
    (fun (rc : Health.recovery) ->
      line "    fault %s at %a (%d fault events): detect %s, decide %s@."
        rc.Health.fault pp_ms rc.Health.fault_at rc.Health.faults
        (match Health.detect_latency rc with
        | Some d -> Printf.sprintf "+%.3f ms" d
        | None -> "-")
        (match Health.recovery_latency rc with
        | Some d -> Printf.sprintf "+%.3f ms" d
        | None -> "never"))
    r.recoveries;
  line "@.-- invariants --@.";
  List.iter
    (fun (name, result) ->
      match result with
      | Ok () -> line "  %s: ok@." name
      | Error v ->
          line "  %s: VIOLATION %a@." name Invariant.pp_violation v)
    r.invariants

let to_string r = Format.asprintf "%a" pp r

let json_ballot (b : Event.ballot) =
  J.Obj [ ("n", J.Int b.n); ("prio", J.Int b.prio); ("pid", J.Int b.pid) ]

let json_opt f = function Some v -> f v | None -> J.Null

let to_json r =
  J.Obj
    [
      ("schema_version", J.Int 2);
      ("n", J.Int r.n);
      ("events", J.Int r.events);
      ("ring_dropped", J.Int r.ring_dropped);
      ( "ring_dropped_by_kind",
        J.Obj
          (List.map (fun (k, c) -> (k, J.Int c)) r.ring_dropped_by_kind) );
      ( "sampling",
        J.Obj (List.map (fun (k, rate) -> (k, J.Int rate)) r.sampling) );
      ("t_start_ms", J.float r.t_start);
      ("t_end_ms", J.float r.t_end);
      ( "by_kind",
        J.Obj (List.map (fun (k, c) -> (k, J.Int c)) r.by_kind) );
      ( "drops_by_reason",
        J.Obj (List.map (fun (k, c) -> (k, J.Int c)) r.drops_by_reason) );
      ( "leader_timeline",
        J.List
          (List.map
             (fun (node, changes) ->
               J.Obj
                 [
                   ("node", J.Int node);
                   ( "changes",
                     J.List
                       (List.map
                          (fun (t, b) ->
                            J.Obj
                              [
                                ("t_ms", J.float t);
                                ("ballot", json_ballot b);
                              ])
                          changes) );
                 ])
             r.leader_timeline) );
      ("stall_threshold_ms", J.float r.stall_ms);
      ( "stalls",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("from_ms", J.float s.stall_from);
                   ("until_ms", json_opt J.float s.stall_until);
                 ])
             r.stalls) );
      ( "commit",
        json_opt
          (fun c ->
            J.Obj
              [
                ("spans_total", J.Int c.spans_total);
                ("spans_decided", J.Int c.spans_decided);
                ("p50_ms", J.float c.p50);
                ("p90_ms", J.float c.p90);
                ("p99_ms", J.float c.p99);
                ("max_ms", J.float c.max_ms);
                ("mean_queueing_ms", J.float c.mean_queueing);
                ("mean_replication_ms", J.float c.mean_replication);
                ("mean_commit_ms", J.float c.mean_commit);
              ])
          r.commit );
      ( "causal",
        J.Obj
          [
            ("edges", J.Int r.causal_edges);
            ("unmatched_sends", J.Int r.unmatched_sends);
            ("orphan_delivers", J.Int r.orphan_delivers);
            ( "lamport_consistent",
              J.Bool (match r.lamport with Ok () -> true | Error _ -> false)
            );
          ] );
      ( "critical_paths",
        J.List
          (List.map
             (fun p ->
               J.Obj
                 [
                   ("log_idx", J.Int p.path_log_idx);
                   ("total_ms", J.float p.path_total_ms);
                   ( "hops",
                     J.List
                       (List.map
                          (fun h ->
                            J.Obj
                              [
                                ("t_ms", J.float h.hop_time);
                                ("node", J.Int h.hop_node);
                                ("desc", J.String h.hop_desc);
                              ])
                          p.path_hops) );
                 ])
             r.critical_paths) );
      ( "health_alerts",
        J.List
          (List.map
             (fun (a : Health.alert) ->
               J.Obj
                 [
                   ("t_ms", J.float a.Health.at);
                   ( "edge",
                     J.String
                       (match a.Health.edge with
                       | Health.Trigger -> "trigger"
                       | Health.Clear -> "clear") );
                   ("what", J.String a.Health.what);
                 ])
             r.health_alerts) );
      ( "recoveries",
        J.List
          (List.map
             (fun (rc : Health.recovery) ->
               J.Obj
                 [
                   ("fault", J.String rc.Health.fault);
                   ("fault_at_ms", J.float rc.Health.fault_at);
                   ("fault_events", J.Int rc.Health.faults);
                   ( "detect_ms",
                     json_opt J.float (Health.detect_latency rc) );
                   ( "recover_ms",
                     json_opt J.float (Health.recovery_latency rc) );
                 ])
             r.recoveries) );
      ( "invariants",
        J.Obj
          (List.map
             (fun (name, result) ->
               ( name,
                 J.Bool (match result with Ok () -> true | Error _ -> false)
               ))
             r.invariants) );
    ]
