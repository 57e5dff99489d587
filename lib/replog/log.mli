(** Growable in-memory replicated log.

    A dynamic array specialised for the access patterns of log replication
    protocols: append (possibly in batches), random read, reading a suffix,
    and truncating/overwriting a suffix during log synchronisation. *)

type 'a t

type 'a slice
(** An immutable view of a range of entries: what a replication message
    carries. Taking one is O(1) and copies nothing — it shares the log's
    array — and it keeps reading the entries it had when it was taken: a
    later write to a slot some slice can see first moves the log's
    entries to a fresh array. *)

val create : unit -> 'a t
val of_list : 'a list -> 'a t
val copy : 'a t -> 'a t

val length : 'a t -> int
(** Absolute length: the index one past the last entry. Unaffected by
    [trim]. *)

val first_idx : 'a t -> int
(** The smallest readable index: [0] until a [trim] raises it. *)

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds or below the trim point. *)

val last : 'a t -> 'a option
val append : 'a t -> 'a -> unit
val append_list : 'a t -> 'a list -> unit

val sub : 'a t -> pos:int -> len:int -> 'a list
(** The entries at [\[pos, pos + len)], clamped to the log's length. Raises
    [Invalid_argument] on a negative argument, and when [len > 0] and [pos]
    is below the trim point (those entries are gone). *)

val suffix : 'a t -> from:int -> 'a list
(** All entries at index [>= from] (empty if [from >= length]). *)

val slice : 'a t -> pos:int -> len:int -> 'a slice
(** The entries [sub] returns, as a slice. *)

val slice_length : 'a slice -> int

val slice_get : 'a slice -> int -> 'a
(** [slice_get s i] is the [i]th entry of [s], from [0]. Raises
    [Invalid_argument] out of bounds. *)

val slice_of_list : 'a list -> 'a slice
val slice_to_list : 'a slice -> 'a list

val append_slice : 'a t -> 'a slice -> skip:int -> unit
(** Append the entries of the slice from its [skip]th on (none if [skip]
    is at least its length): one blit. *)

val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the first [n] entries. No-op if [n >= length t]. *)

val set_suffix : 'a t -> at:int -> 'a slice -> skip:int -> unit
(** [set_suffix t ~at s ~skip] truncates the log to [at] entries and appends
    the entries of [s] from its [skip]th on — the log-synchronisation
    primitive of the Prepare phase.
    Raises [Invalid_argument] if [at > length t] or [at < first_idx t]. *)

val trim : 'a t -> upto:int -> unit
(** Log compaction: discard entries below the absolute index [upto].
    Indexing stays absolute; subsequent reads below [upto] raise. A no-op
    if [upto <= first_idx t]; raises if [upto > length t].

    When no slice has been taken of the log's current array, the remaining
    entries move to its front in place and the log keeps its capacity, so
    trimming allocates nothing. Otherwise (or when nothing remains) they
    move to a fresh array, and slices taken before the trim keep reading
    their entries. *)

val reset_to : 'a t -> offset:int -> unit
(** Discard everything and restart the log at absolute index [offset] —
    used when installing a state snapshot that covers [0, offset). *)

val to_list : 'a t -> 'a list
val iteri_from : 'a t -> from:int -> (int -> 'a -> unit) -> unit
val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
