(** Growable in-memory replicated log.

    A dynamic array specialised for the access patterns of log replication
    protocols: append (possibly in batches), random read, reading a suffix,
    and truncating/overwriting a suffix during log synchronisation.

    {b Representation.} The entries are stored in two parts, in order: the
    log's own array, the only storage it ever writes, and then the kept
    segments, the slices {!append_slice} received, kept as they are. A
    leader appends to its own array; a follower keeps each batch it
    receives as one segment, in O(1), copying nothing. The log moves every
    entry into one own array ({i flattens}) only for a write that needs
    one: an {!append}, or a {!slice} of a range that is not inside one
    part. A truncate or {!set_suffix} that cuts ends or drops segments
    without copying, a {!trim} past the own array copies only the entries
    that stay, and the read-only functions read across the parts.

    {b What a segment pins.} A segment shares its slice's array, usually
    the sender's log array, and keeps all of it reachable, with every
    entry the sender held when it sent the slice. The pin is released when
    the log stops keeping the segment: a {!trim} past the own array (the
    entries that stay then move into the own array, so a trim releases
    every pin), a {!truncate}, {!set_suffix} or {!reset_to} that cuts the
    segment away, or a flatten. *)

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
(** Raises [Invalid_argument] when out of bounds or below the trim point.
    The segment holding the entry is searched from the tail: O(1) for the
    newest segment, O(log d) for the [d]th newest. *)

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
(** The entries [sub] returns, as a slice. A range inside the own array
    shares it; a range inside one segment shares the segment's slice (and
    is that slice when it is all of it); a range across parts flattens the
    log first. *)

val slice_length : 'a slice -> int

val slice_get : 'a slice -> int -> 'a
(** [slice_get s i] is the [i]th entry of [s], from [0]. Raises
    [Invalid_argument] out of bounds. *)

val slice_of_list : 'a list -> 'a slice
val slice_to_list : 'a slice -> 'a list

val append_slice : 'a t -> 'a slice -> skip:int -> unit
(** Append the entries of the slice from its [skip]th on (none if [skip]
    is at least its length), keeping the slice itself as a segment: O(1),
    no entry copied, nothing allocated once the segment table has room. *)

val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the first [n] entries. No-op if [n >= length t]:
    a truncate at the end keeps every segment. *)

val set_suffix : 'a t -> at:int -> 'a slice -> skip:int -> unit
(** [set_suffix t ~at s ~skip] truncates the log to [at] entries and appends
    the entries of [s] from its [skip]th on — the log-synchronisation
    primitive of the Prepare phase.
    Raises [Invalid_argument] if [at > length t] or [at < first_idx t]. *)

val trim : 'a t -> upto:int -> unit
(** Log compaction: discard entries below the absolute index [upto].
    Indexing stays absolute; subsequent reads below [upto] raise. A no-op
    if [upto <= first_idx t]; raises if [upto > length t].

    Inside the own array: when no slice has been taken of it, the remaining
    entries move to its front in place and the log keeps its capacity, so
    trimming allocates nothing. Otherwise they move to a fresh array of
    the same capacity, and slices taken before the trim keep reading
    their entries; when nothing remains the array goes. A trim past the
    own array drops every segment and makes the remaining entries the own
    part: in the own array when no slice has been taken of it and they
    fit, else in a fresh exact-size array. *)

val reset_to : 'a t -> offset:int -> unit
(** Discard everything and restart the log at absolute index [offset] —
    used when installing a state snapshot that covers [0, offset). *)

val to_list : 'a t -> 'a list
val iteri_from : 'a t -> from:int -> (int -> 'a -> unit) -> unit
val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b

(** {2 Reading the storage in chunks}

    A chunk is a run of entries at consecutive positions of one array: the
    own array, or a segment. Walking the chunks reads a range with no call
    per entry. The array is the log's (or a slice's) storage: read it,
    never write it, and do not keep it past the log's next write. Each
    function raises [Invalid_argument] unless
    [first_idx t <= i < length t], and finds [i]'s chunk from the tail. *)

val chunk : 'a t -> int -> 'a array
(** The array that stores entry [i]. *)

val chunk_pos : 'a t -> int -> int
(** The position of entry [i] in [chunk t i]. *)

val chunk_stop : 'a t -> int -> int
(** One past the last entry of [i]'s chunk: the entries
    [\[i, chunk_stop t i)] sit at [chunk t i] from [chunk_pos t i] on. *)
