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

(* Stable numeric tag per constructor, in declaration order. The trace
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

(* The counter-sampled kinds' tags, for [Trace.on_kind]. *)
let proposed_tag = kind_tag (Proposed { log_idx = 0; cmd_id = 0 })

let accepted_tag =
  kind_tag (Accepted_idx { b = { n = 0; prio = 0; pid = 0 }; log_idx = 0 })

let batch_flush_tag =
  kind_tag
    (Batch_flush { entries = 0; followers = 0; cap = 0; trigger = "" })

let kind_name k = names.(kind_tag k)

let tag_name tag =
  if tag < 0 || tag >= num_kinds then
    invalid_arg (Printf.sprintf "Event.tag_name: unknown tag %d" tag);
  names.(tag)

let pp_ballot ppf b =
  Format.fprintf ppf "(n=%d,prio=%d,pid=%d)" b.n b.prio b.pid

let pp ppf e =
  Format.fprintf ppf "[%.3f] node %d %s" e.time e.node (kind_name e.kind)
