(* Proposal-lifecycle spans: one per log index, tracked over a recorded
   event stream. The lifecycle of entry [i] on the happy path is

     Proposed     (leader append)     -> proposed_at
     Accept_sent  covering i          -> first_accept_at
     Accepted_idx from quorum-1 peers -> quorum_ack_at
     Decided      with idx > i        -> decided

   giving the per-entry latency breakdown: queueing (proposed -> first
   Accept), replication (first Accept -> quorum ack) and commit (quorum ack
   -> decided). A re-proposal at the same index after a leader change
   replaces the span — the earlier entry was never decided there. *)

type building = {
  b_leader : int;
  b_proposed_at : float;
  mutable b_acks : int;  (* distinct followers past this entry *)
  mutable b_first_accept_at : float option;
  mutable b_quorum_ack_at : float option;
}

(* ------------------------------------------------------------------ *)
(* Streaming tracker: O(active spans) memory                           *)
(* ------------------------------------------------------------------ *)

(* The tracker finalises a span the moment the decided watermark passes its
   index and hands it back to the caller, so its live state is only the
   in-flight pipeline window (plus per-node ack watermarks). Decided spans
   come out in ascending log-index order, so aggregates over them (sums,
   percentiles) are deterministic. *)

module Tracker = struct
  type closed = {
    c_log_idx : int;
    c_total : float;
    c_queueing : float option;
    c_replication : float option;
    c_commit : float option;
  }

  type t = {
    spans : (int, building) Hashtbl.t;
    acked : (int, int) Hashtbl.t;
    mutable decided_upto : int;
    mutable finalized : int;
  }

  let create () =
    {
      spans = Hashtbl.create 256;
      acked = Hashtbl.create 16;
      decided_upto = 0;
      finalized = 0;
    }

  let active t = Hashtbl.length t.spans
  let total_spans t = t.finalized + Hashtbl.length t.spans
  let decided_spans t = t.finalized

  (* [observe t ~quorum e] feeds one event; returns the spans this event
     finalised (decided), in ascending log-index order. [quorum] is the
     cluster quorum size — pass a constant when the cluster size is known
     up front (file and in-memory analysis), or a running value for
     single-pass use. *)
  let observe t ~quorum (e : Event.t) : closed list =
    match e.kind with
    | Event.Proposed { log_idx; _ } ->
        Hashtbl.replace t.spans log_idx
          {
            b_leader = e.node;
            b_proposed_at = e.time;
            b_acks = 0;
            b_first_accept_at = None;
            b_quorum_ack_at = None;
          };
        []
    | Event.Accept_sent { start_idx; count; _ } ->
        for i = start_idx to start_idx + count - 1 do
          match Hashtbl.find_opt t.spans i with
          | Some s
            when s.b_leader = e.node && Option.is_none s.b_first_accept_at ->
              s.b_first_accept_at <- Some e.time
          | Some _ | None -> ()
        done;
        []
    | Event.Accepted_idx { log_idx = la; _ } ->
        let prev = Option.value (Hashtbl.find_opt t.acked e.node) ~default:0 in
        Hashtbl.replace t.acked e.node la;
        (* A shrink means the follower's log was truncated during sync;
           nothing to credit. *)
        if la > prev then
          for i = prev to la - 1 do
            match Hashtbl.find_opt t.spans i with
            | Some s when e.node <> s.b_leader ->
                s.b_acks <- s.b_acks + 1;
                if s.b_acks >= quorum - 1 && Option.is_none s.b_quorum_ack_at
                then s.b_quorum_ack_at <- Some e.time
            | Some _ | None -> ()
          done;
        []
    | Event.Decided { decided_idx = d; _ } ->
        if d <= t.decided_upto then []
        else begin
          let closed = ref [] in
          for i = d - 1 downto t.decided_upto do
            match Hashtbl.find_opt t.spans i with
            | Some s ->
                Hashtbl.remove t.spans i;
                t.finalized <- t.finalized + 1;
                let q = s.b_quorum_ack_at in
                let a = s.b_first_accept_at in
                closed :=
                  {
                    c_log_idx = i;
                    c_total = e.time -. s.b_proposed_at;
                    c_queueing =
                      Option.map (fun at -> at -. s.b_proposed_at) a;
                    c_replication =
                      (match (a, q) with
                      | Some a, Some q -> Some (q -. a)
                      | _, _ -> None);
                    c_commit = Option.map (fun q -> e.time -. q) q;
                  }
                  :: !closed
            | None -> ()
          done;
          t.decided_upto <- d;
          !closed
        end
    (* Event-stream filter: other kinds do not shape proposal spans. *)
    | _ [@lint.allow "D4"] -> []
end
