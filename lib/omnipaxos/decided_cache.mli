(** The decided command ids of one server, in decided order, as runs of
    consecutive ids: a cache of a million consecutive ids is a handful of
    words. {!Compaction.Store.apply} notes every client command it
    applies, one run of consecutive ids at a time. *)

type t

val create : unit -> t
val copy : t -> t
val note : t -> int -> unit

val note_run : t -> first:int -> count:int -> unit
(** [note_run t ~first ~count] notes the ids [first], [first + 1], ...,
    [first + count - 1], as [count] calls of {!note} would. *)

val count : t -> int

val ids_from : t -> from:int -> int list
(** The ids at decided positions [from] on ([\[\]] past the end). *)
