(** Trace-driven invariant checkers: feed them the event stream of a run (in
    timestamp order) and assert the result. Tests run them over scenario
    runs; [opx trace] reports them over whole replays. *)

type violation = { at : float; node : int; message : string }

val pp_violation : Format.formatter -> violation -> unit

(** Streaming checkers: feed events one at a time; each invariant latches
    its first violation. Memory is O(distinct ballots + nodes). The
    invariants, in [results] order:

    - [single-leader-per-ballot]: at most one server acts as leader (sends
      Prepare or Accept) under any given ballot, and only the server the
      ballot belongs to;
    - [decided-prefix-monotonic]: each server's decided index never moves
      backwards (stable storage keeps the decided prefix across crashes). *)
module Monitor : sig
  type t

  val create : unit -> t
  val observe : t -> Event.t -> unit
  val results : t -> (string * (unit, violation) result) list
end

val check_all : Event.t list -> (string * (unit, violation) result) list
(** {!Monitor} run over a whole list: (name, result) pairs. *)
