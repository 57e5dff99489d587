(* [Make (P)] is [P] with a timing frame around every entry point the
   cluster driver, the client and the network call: [handle], [tick],
   [session_reset], [propose], [msg_size], the queries, and the [send]
   callback [create] receives. Sites are named after the protocol core
   ("omnipaxos.handle", "raft.tick", ...) plus the shared "simnet.send".
   Behaviour is unchanged: every function forwards its arguments and result
   as is, and an exception closes the frame before propagating. *)

(* "Omni-Paxos" -> "omnipaxos", "Multi-Paxos" -> "multipaxos", "VR" -> "vr". *)
let layer_of_name name =
  String.lowercase_ascii
    (String.concat "" (String.split_on_char '-' name))

let s_send = Frames.site "simnet.send"

(* A protocol that says whether its calls open frames, so the bench opens
   its own frames exactly when the protocol's are there too. *)
module type S = sig
  include Rsm.Protocol.PROTOCOL

  val timed : bool
end

module Bare (P : Rsm.Protocol.PROTOCOL) : S with type t = P.t and type msg = P.msg =
struct
  include P

  let timed = false
end

module Make (P : Rsm.Protocol.PROTOCOL) : S with type t = P.t and type msg = P.msg = struct
  type t = P.t
  type msg = P.msg

  let timed = true
  let name = P.name
  let layer = layer_of_name P.name
  let s_handle = Frames.site (layer ^ ".handle")
  let s_tick = Frames.site (layer ^ ".tick")
  let s_propose = Frames.site (layer ^ ".propose")
  let s_session_reset = Frames.site (layer ^ ".session_reset")
  let s_msg_size = Frames.site (layer ^ ".msg_size")
  let s_query = Frames.site (layer ^ ".query")

  let create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send () =
    let send ~dst m =
      Frames.enter s_send;
      match send ~dst m with
      | () -> Frames.leave ()
      | exception e ->
          Frames.leave ();
          raise e
    in
    P.create ?batching ?compaction ~id ~peers ~election_ticks ~rand ~send ()

  let handle t ~src m =
    Frames.enter s_handle;
    match P.handle t ~src m with
    | () -> Frames.leave ()
    | exception e ->
        Frames.leave ();
        raise e

  let tick t =
    Frames.enter s_tick;
    match P.tick t with
    | () -> Frames.leave ()
    | exception e ->
        Frames.leave ();
        raise e

  let session_reset t ~peer =
    Frames.enter s_session_reset;
    match P.session_reset t ~peer with
    | () -> Frames.leave ()
    | exception e ->
        Frames.leave ();
        raise e

  let restart = P.restart

  let propose t cmd =
    Frames.enter s_propose;
    match P.propose t cmd with
    | ok ->
        Frames.leave ();
        ok
    | exception e ->
        Frames.leave ();
        raise e

  let is_leader t =
    Frames.enter s_query;
    let r = P.is_leader t in
    Frames.leave ();
    r

  let leader_pid t =
    Frames.enter s_query;
    let r = P.leader_pid t in
    Frames.leave ();
    r

  let decided_count t =
    Frames.enter s_query;
    let r = P.decided_count t in
    Frames.leave ();
    r

  let decided_ids t ~from =
    Frames.enter s_query;
    let r = P.decided_ids t ~from in
    Frames.leave ();
    r

  let decided_index t =
    Frames.enter s_query;
    let r = P.decided_index t in
    Frames.leave ();
    r

  let last_install t =
    Frames.enter s_query;
    let r = P.last_install t in
    Frames.leave ();
    r

  let msg_size m =
    Frames.enter s_msg_size;
    let r = P.msg_size m in
    Frames.leave ();
    r
end
