(** Ballot numbers (rounds) for BLE and Sequence Paxos.

    A ballot [b = (n, priority, pid)] is totally ordered lexicographically.
    [pid] is the unique server identifier, which makes every ballot unique
    (LE3). [priority] is the optional custom field described in §5.2 of the
    paper, used only to break ties between servers bumping to the same [n];
    it never overrides a higher [n] and therefore does not affect liveness. *)

type t = { n : int; priority : int; pid : int }

val bottom : t
(** The smallest ballot; smaller than any ballot a server can own. *)

val initial : ?priority:int -> pid:int -> unit -> t
(** The first ballot of server [pid] (with [n = 1]). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val max : t -> t -> t

val bump_above : t -> t -> t
(** [bump_above mine target] is [mine] with [n] raised to [target.n + 1]:
    the takeover step of BLE. *)

val to_event : t -> Obs.Event.ballot
(** The ballot as trace events carry it. *)

val pp : Format.formatter -> t -> unit
