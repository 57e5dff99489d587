(** Typed trace events emitted by the protocol layers and the simulated
    network. Protocol-agnostic: ballots are (n, prio, pid) triples, so Raft
    terms and VR views map onto them as (term, 0, leader).

    {!Tracebin} is the one module that encodes and decodes events, as JSONL
    ({!Tracebin.to_json}) or binary; the schema is documented in the
    README's "Trace format" section (schema v2: message events carry a
    cluster-unique [send_id] and a Lamport clock [lc], and drops carry the
    transport [session] they were judged against). *)

type ballot = { n : int; prio : int; pid : int }

type kind =
  | Ballot_increment of ballot
      (** A server bumped its own ballot (leader-takeover attempt). *)
  | Leader_elected of ballot  (** First leader this server observed. *)
  | Leader_changed of ballot  (** The observed leader changed. *)
  | Prepare_round of { b : ballot; log_idx : int; decided_idx : int }
      (** Leader-side: a Prepare was broadcast (or re-sent to a peer). *)
  | Promise_sent of { b : ballot; log_idx : int; decided_idx : int }
  | Accept_sent of { b : ballot; start_idx : int; count : int }
      (** Leader-side: an Accept/AcceptSync batch of [count] entries. *)
  | Accepted_idx of { b : ballot; log_idx : int }
      (** Follower-side: acknowledged the log up to [log_idx]. *)
  | Decided of { b : ballot; decided_idx : int }
      (** The decided index advanced to [decided_idx]. *)
  | Proposed of { log_idx : int; cmd_id : int }
      (** Leader-side: client command [cmd_id] was appended to the leader's
          log at [log_idx] (the moment a proposal enters the pipeline). *)
  | Batch_flush of { entries : int; followers : int; cap : int; trigger : string }
      (** The leader flushed [entries] buffered log entries to [followers]
          followers under Accept cap [cap]. Triggers: "size" (the eager
          size-triggered flush in [propose]) or "deadline" (the tick-driven
          deadline flush). *)
  | Cap_change of { cap_from : int; cap_to : int }
      (** The adaptive batching policy adjusted the per-Accept cap. *)
  | Session_drop of { peer : int; session : int }
      (** The transport session with [peer] was torn down (link loss). *)
  | Session_up of { peer : int; session : int }
      (** A new session with [peer] was established. *)
  | Link_cut of { a : int; b : int }  (** The [a -> b] direction went down. *)
  | Link_heal of { a : int; b : int }  (** The [a -> b] direction came up. *)
  | Crashed
  | Recovered
  | Reconfig of { config_id : int; milestone : string }
      (** Service-layer reconfiguration milestones: "stop-sign-proposed",
          "stop-sign-decided", "migration-start", "migration-done". *)
  | Msg_send of { dst : int; size : int; send_id : int; lc : int }
      (** [send_id] is unique per transmission within a simulation; [lc] is
          the sender's Lamport clock after the send tick. *)
  | Msg_deliver of { src : int; size : int; send_id : int; lc : int }
      (** [send_id] matches the corresponding [Msg_send]; [lc] is the
          receiver's Lamport clock after merging the sender's. *)
  | Msg_drop of {
      src : int;
      dst : int;
      reason : string;
      session : int;
      send_id : int;
    }
      (** Reasons: "src-down", "dst-down", "link-down", "stale-session".
          [session] is the session id the message was stamped with (so a
          "stale-session" drop can be tied to the [Session_drop] that
          invalidated it); [send_id] is [-1] when the message was refused at
          send time and no [Msg_send] was ever emitted. *)
  | Snapshot_taken of { idx : int; bytes : int }
      (** Compaction: the node materialised a state snapshot covering log
          indexes [0, idx); [bytes] is the encoded snapshot size. *)
  | Snapshot_installed of { idx : int; bytes : int }
      (** A lagging/recovering node installed a received snapshot covering
          [0, idx) and restarted its log there. *)
  | Log_trimmed of { upto : int; entries : int }
      (** The node discarded [entries] log entries below absolute index
          [upto] (indexing stays absolute; see [Replog.Log.trim]). *)
  | Chaos_fault of { step : int; fault : string }
      (** A chaos-campaign nemesis applied a fault ([fault] is its compact
          rendering, e.g. "crash(2)"); [node] is -1 for cluster-wide faults. *)
  | Chaos_invoke of { client : int; op_id : int; op : string }
      (** A chaos client submitted operation [op_id] to server [node]. *)
  | Chaos_response of { client : int; op_id : int; result : string }
      (** Operation [op_id] completed at its submission server. *)
  | Chaos_timeout of { client : int; op_id : int }
      (** The client abandoned [op_id]; its effect may still appear later. *)

type t = {
  time : float;  (** simulated milliseconds *)
  node : int;  (** emitting server (the receiver for [Msg_deliver]) *)
  kind : kind;
}

val kind_name : kind -> string

val kind_tag : kind -> int
(** Stable numeric tag per constructor (declaration order, [0 ..
    num_kinds - 1]). The trace codec and the sampler index per-kind state
    by this tag; new constructors are appended, never renumbered, so old
    binary traces keep decoding. *)

val num_kinds : int

val proposed_tag : int
val accepted_tag : int
val batch_flush_tag : int
(** The tags of [Proposed], [Accepted_idx] and [Batch_flush]: the
    counter-sampled kinds a site asks about by tag
    ({!Trace.on_kind}). *)

val tag_name : int -> string
(** [kind_name] of the constructor with that {!kind_tag}. Raises
    [Invalid_argument] on an unknown tag. *)

val pp : Format.formatter -> t -> unit
val pp_ballot : Format.formatter -> ballot -> unit
