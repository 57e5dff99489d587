(* Structured trace events. Protocol-agnostic: ballots are (n, prio, pid)
   triples so Raft terms and VR views map onto them as (term, 0, leader). *)

type ballot = { n : int; prio : int; pid : int }

type kind =
  | Ballot_increment of ballot
  | Leader_elected of ballot
  | Leader_changed of ballot
  | Prepare_round of { b : ballot; log_idx : int; decided_idx : int }
  | Promise_sent of { b : ballot; log_idx : int; decided_idx : int }
  | Accept_sent of { b : ballot; start_idx : int; count : int }
  | Accepted_idx of { b : ballot; log_idx : int }
  | Decided of { b : ballot; decided_idx : int }
  | Proposed of { log_idx : int; cmd_id : int }
  | Batch_flush of { entries : int; followers : int; cap : int; trigger : string }
  | Cap_change of { cap_from : int; cap_to : int }
  | Session_drop of { peer : int; session : int }
  | Session_up of { peer : int; session : int }
  | Link_cut of { a : int; b : int }
  | Link_heal of { a : int; b : int }
  | Crashed
  | Recovered
  | Reconfig of { config_id : int; milestone : string }
  | Msg_send of { dst : int; size : int; send_id : int; lc : int }
  | Msg_deliver of { src : int; size : int; send_id : int; lc : int }
  | Msg_drop of {
      src : int;
      dst : int;
      reason : string;
      session : int;
      send_id : int;
    }
  | Snapshot_taken of { idx : int; bytes : int }
  | Snapshot_installed of { idx : int; bytes : int }
  | Log_trimmed of { upto : int; entries : int }
  | Chaos_fault of { step : int; fault : string }
  | Chaos_invoke of { client : int; op_id : int; op : string }
  | Chaos_response of { client : int; op_id : int; result : string }
  | Chaos_timeout of { client : int; op_id : int }

type t = { time : float; node : int; kind : kind }

(* Stable numeric tag per constructor, in declaration order. The binary
   codec (Tracebin) and the sampler index per-kind state by this tag; a new
   constructor must be appended (never renumbered) so old binary traces
   keep decoding. *)
let kind_tag = function
  | Ballot_increment _ -> 0
  | Leader_elected _ -> 1
  | Leader_changed _ -> 2
  | Prepare_round _ -> 3
  | Promise_sent _ -> 4
  | Accept_sent _ -> 5
  | Accepted_idx _ -> 6
  | Decided _ -> 7
  | Proposed _ -> 8
  | Batch_flush _ -> 9
  | Cap_change _ -> 10
  | Session_drop _ -> 11
  | Session_up _ -> 12
  | Link_cut _ -> 13
  | Link_heal _ -> 14
  | Crashed -> 15
  | Recovered -> 16
  | Reconfig _ -> 17
  | Msg_send _ -> 18
  | Msg_deliver _ -> 19
  | Msg_drop _ -> 20
  | Snapshot_taken _ -> 21
  | Snapshot_installed _ -> 22
  | Log_trimmed _ -> 23
  | Chaos_fault _ -> 24
  | Chaos_invoke _ -> 25
  | Chaos_response _ -> 26
  | Chaos_timeout _ -> 27

(* Kind names, indexed by [kind_tag]. *)
let names =
  [|
    "ballot_increment"; "leader_elected"; "leader_changed"; "prepare";
    "promise"; "accept"; "accepted"; "decide"; "proposed"; "batch_flush";
    "cap_change"; "session_drop"; "session_up"; "link_cut"; "link_heal";
    "crash"; "recover"; "reconfig"; "send"; "deliver"; "drop";
    "snapshot_taken"; "snapshot_installed"; "log_trimmed"; "chaos_fault";
    "chaos_invoke"; "chaos_response"; "chaos_timeout";
  |]

let num_kinds = Array.length names
let kind_name k = names.(kind_tag k)

let tag_name tag =
  if tag < 0 || tag >= num_kinds then
    invalid_arg (Printf.sprintf "Event.tag_name: unknown tag %d" tag);
  names.(tag)

let pp_ballot ppf b =
  Format.fprintf ppf "(n=%d,prio=%d,pid=%d)" b.n b.prio b.pid

(* Minimal JSON string escaping; reasons and milestones are short ASCII
   identifiers, but escape defensively anyway. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_ballot b =
  Printf.sprintf {|{"n":%d,"prio":%d,"pid":%d}|} b.n b.prio b.pid

(* One JSON object per event (no trailing newline); see README for the
   schema. Every object has "t" (simulated ms), "node" and "kind"; the other
   fields depend on the kind. *)
let to_json e =
  let head = Printf.sprintf {|"t":%.3f,"node":%d,"kind":"%s"|} e.time e.node
      (kind_name e.kind)
  in
  let rest =
    match e.kind with
    | Ballot_increment b | Leader_elected b | Leader_changed b ->
        Printf.sprintf {|"ballot":%s|} (json_ballot b)
    | Prepare_round { b; log_idx; decided_idx }
    | Promise_sent { b; log_idx; decided_idx } ->
        Printf.sprintf {|"ballot":%s,"log_idx":%d,"decided_idx":%d|}
          (json_ballot b) log_idx decided_idx
    | Accept_sent { b; start_idx; count } ->
        Printf.sprintf {|"ballot":%s,"start_idx":%d,"count":%d|}
          (json_ballot b) start_idx count
    | Accepted_idx { b; log_idx } ->
        Printf.sprintf {|"ballot":%s,"log_idx":%d|} (json_ballot b) log_idx
    | Decided { b; decided_idx } ->
        Printf.sprintf {|"ballot":%s,"decided_idx":%d|} (json_ballot b)
          decided_idx
    | Proposed { log_idx; cmd_id } ->
        Printf.sprintf {|"log_idx":%d,"cmd_id":%d|} log_idx cmd_id
    | Batch_flush { entries; followers; cap; trigger } ->
        Printf.sprintf {|"entries":%d,"followers":%d,"cap":%d,"trigger":"%s"|}
          entries followers cap (escape trigger)
    | Cap_change { cap_from; cap_to } ->
        Printf.sprintf {|"cap_from":%d,"cap_to":%d|} cap_from cap_to
    | Session_drop { peer; session } | Session_up { peer; session } ->
        Printf.sprintf {|"peer":%d,"session":%d|} peer session
    | Link_cut { a; b } | Link_heal { a; b } ->
        Printf.sprintf {|"a":%d,"b":%d|} a b
    | Crashed | Recovered -> ""
    | Reconfig { config_id; milestone } ->
        Printf.sprintf {|"config_id":%d,"milestone":"%s"|} config_id
          (escape milestone)
    | Msg_send { dst; size; send_id; lc } ->
        Printf.sprintf {|"dst":%d,"size":%d,"send_id":%d,"lc":%d|} dst size
          send_id lc
    | Msg_deliver { src; size; send_id; lc } ->
        Printf.sprintf {|"src":%d,"size":%d,"send_id":%d,"lc":%d|} src size
          send_id lc
    | Msg_drop { src; dst; reason; session; send_id } ->
        Printf.sprintf
          {|"src":%d,"dst":%d,"reason":"%s","session":%d,"send_id":%d|} src
          dst (escape reason) session send_id
    | Snapshot_taken { idx; bytes } | Snapshot_installed { idx; bytes } ->
        Printf.sprintf {|"idx":%d,"bytes":%d|} idx bytes
    | Log_trimmed { upto; entries } ->
        Printf.sprintf {|"upto":%d,"entries":%d|} upto entries
    | Chaos_fault { step; fault } ->
        Printf.sprintf {|"step":%d,"fault":"%s"|} step (escape fault)
    | Chaos_invoke { client; op_id; op } ->
        Printf.sprintf {|"client":%d,"op_id":%d,"op":"%s"|} client op_id
          (escape op)
    | Chaos_response { client; op_id; result } ->
        Printf.sprintf {|"client":%d,"op_id":%d,"result":"%s"|} client op_id
          (escape result)
    | Chaos_timeout { client; op_id } ->
        Printf.sprintf {|"client":%d,"op_id":%d|} client op_id
  in
  if rest = "" then Printf.sprintf "{%s}" head
  else Printf.sprintf "{%s,%s}" head rest

(* ------------------------------------------------------------------ *)
(* Parsing (the inverse of [to_json], used by the offline analyzer)    *)
(* ------------------------------------------------------------------ *)

module J = Bench_report.Json

let of_json line =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* j = J.of_string line in
  let int k =
    match J.member k j with
    | Some (J.Int i) -> Ok i
    | Some (J.Float f) -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "missing int field %S" k)
  in
  let str k =
    match J.member k j with
    | Some (J.String s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string field %S" k)
  in
  let num k =
    match J.member k j with
    | Some (J.Float f) -> Ok f
    | Some (J.Int i) -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "missing number field %S" k)
  in
  let ballot () =
    match J.member "ballot" j with
    | Some (J.Obj _ as b) -> (
        match (J.member "n" b, J.member "prio" b, J.member "pid" b) with
        | Some (J.Int n), Some (J.Int prio), Some (J.Int pid) ->
            Ok { n; prio; pid }
        | _ -> Error "malformed ballot")
    | _ -> Error "missing ballot"
  in
  let* time = num "t" in
  let* node = int "node" in
  let* kind_s = str "kind" in
  let* kind =
    match kind_s with
    | "ballot_increment" ->
        let* b = ballot () in
        Ok (Ballot_increment b)
    | "leader_elected" ->
        let* b = ballot () in
        Ok (Leader_elected b)
    | "leader_changed" ->
        let* b = ballot () in
        Ok (Leader_changed b)
    | "prepare" ->
        let* b = ballot () in
        let* log_idx = int "log_idx" in
        let* decided_idx = int "decided_idx" in
        Ok (Prepare_round { b; log_idx; decided_idx })
    | "promise" ->
        let* b = ballot () in
        let* log_idx = int "log_idx" in
        let* decided_idx = int "decided_idx" in
        Ok (Promise_sent { b; log_idx; decided_idx })
    | "accept" ->
        let* b = ballot () in
        let* start_idx = int "start_idx" in
        let* count = int "count" in
        Ok (Accept_sent { b; start_idx; count })
    | "accepted" ->
        let* b = ballot () in
        let* log_idx = int "log_idx" in
        Ok (Accepted_idx { b; log_idx })
    | "decide" ->
        let* b = ballot () in
        let* decided_idx = int "decided_idx" in
        Ok (Decided { b; decided_idx })
    | "proposed" ->
        let* log_idx = int "log_idx" in
        let* cmd_id = int "cmd_id" in
        Ok (Proposed { log_idx; cmd_id })
    | "batch_flush" ->
        let* entries = int "entries" in
        let* followers = int "followers" in
        let* cap = int "cap" in
        let* trigger = str "trigger" in
        Ok (Batch_flush { entries; followers; cap; trigger })
    | "cap_change" ->
        let* cap_from = int "cap_from" in
        let* cap_to = int "cap_to" in
        Ok (Cap_change { cap_from; cap_to })
    | "session_drop" ->
        let* peer = int "peer" in
        let* session = int "session" in
        Ok (Session_drop { peer; session })
    | "session_up" ->
        let* peer = int "peer" in
        let* session = int "session" in
        Ok (Session_up { peer; session })
    | "link_cut" ->
        let* a = int "a" in
        let* b = int "b" in
        Ok (Link_cut { a; b })
    | "link_heal" ->
        let* a = int "a" in
        let* b = int "b" in
        Ok (Link_heal { a; b })
    | "crash" -> Ok Crashed
    | "recover" -> Ok Recovered
    | "reconfig" ->
        let* config_id = int "config_id" in
        let* milestone = str "milestone" in
        Ok (Reconfig { config_id; milestone })
    | "send" ->
        let* dst = int "dst" in
        let* size = int "size" in
        let* send_id = int "send_id" in
        let* lc = int "lc" in
        Ok (Msg_send { dst; size; send_id; lc })
    | "deliver" ->
        let* src = int "src" in
        let* size = int "size" in
        let* send_id = int "send_id" in
        let* lc = int "lc" in
        Ok (Msg_deliver { src; size; send_id; lc })
    | "drop" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* reason = str "reason" in
        let* session = int "session" in
        let* send_id = int "send_id" in
        Ok (Msg_drop { src; dst; reason; session; send_id })
    | "snapshot_taken" ->
        let* idx = int "idx" in
        let* bytes = int "bytes" in
        Ok (Snapshot_taken { idx; bytes })
    | "snapshot_installed" ->
        let* idx = int "idx" in
        let* bytes = int "bytes" in
        Ok (Snapshot_installed { idx; bytes })
    | "log_trimmed" ->
        let* upto = int "upto" in
        let* entries = int "entries" in
        Ok (Log_trimmed { upto; entries })
    | "chaos_fault" ->
        let* step = int "step" in
        let* fault = str "fault" in
        Ok (Chaos_fault { step; fault })
    | "chaos_invoke" ->
        let* client = int "client" in
        let* op_id = int "op_id" in
        let* op = str "op" in
        Ok (Chaos_invoke { client; op_id; op })
    | "chaos_response" ->
        let* client = int "client" in
        let* op_id = int "op_id" in
        let* result = str "result" in
        Ok (Chaos_response { client; op_id; result })
    | "chaos_timeout" ->
        let* client = int "client" in
        let* op_id = int "op_id" in
        Ok (Chaos_timeout { client; op_id })
    | other -> Error (Printf.sprintf "unknown kind %S" other)
  in
  Ok { time; node; kind }

let pp ppf e =
  Format.fprintf ppf "[%.3f] node %d %s" e.time e.node (kind_name e.kind)
