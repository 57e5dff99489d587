(** Majority quorums over a fixed member list: the one place that decides
    whether enough members replied.

    Every step of Sequence Paxos, BLE, Raft, VR and Multi-Paxos needs
    replies from a majority of its configuration's members. A core builds
    its {!members} once per configuration, opens one reply set ({!t}) per
    round of votes, promises or acknowledgements, and asks {!reached}; a
    reply from a pid that is not a member is ignored, so it never counts.
    Pids may be any non-negative ints, gaps included: reply sets are
    indexed by pid over [0, 1 + max member), not packed into a word; only
    {!mask_add} packs one into an int, for tables of many small sets. *)

val majority : int -> int
(** [majority n] is the number of members that forms a majority of [n]. *)

type members
(** A fixed list of member pids, and the scratch buffer of {!index}. *)

val members : int list -> members
(** Duplicates count once; negative pids are not members. *)

val quorum : members -> int
(** [majority] of the number of distinct members. *)

val is_member : members -> int -> bool

val index : members -> int array -> self:int -> local:int -> above:int -> int
(** [index m acked ~self ~local ~above] is the largest index acknowledged
    by a quorum of [m]: the [quorum m]-th largest of the members' values,
    where member [self] holds [local] and any other member [p] holds
    [acked.(p)] (absent, hence not counted, past the array's end). Only
    values above [above] count; [above] is returned when fewer than
    [quorum m] members exceed it. Allocates nothing. *)

type t
(** A set of members that replied. *)

val create : ?self:int -> members -> t
(** A set over [members] that holds only [self], the node that counts its
    own reply (if a member), from its creation and after every
    {!clear}. *)

val add : t -> int -> unit
(** Record a reply from a pid. A non-member or a repeat changes nothing;
    allocates nothing. *)

val remove : t -> int -> unit
val mem : t -> int -> bool
val count : t -> int

val reached : t -> bool
(** [count t >= quorum] of its members. *)

val clear : t -> unit
(** Drop every reply but [self]'s, in O(1). *)

val iter : (int -> unit) -> t -> unit
(** The replied members in ascending pid order. *)

val copy : t -> t

val restrict : t -> members -> t
(** A set over new members, with the same [self], holding the replies of
    [t] from pids that are still members. *)

val mask_add : members -> int -> int -> int
(** [mask_add m mask p] records a reply from [p] in [mask], a reply set
    packed in one int (bit [r] is the member with the [r]-th smallest pid)
    for a table of many sets, such as one per log slot; a non-member
    changes nothing. Holds at most 63 members. *)

val mask_reached : members -> int -> bool
(** Whether the members in a [mask_add] set form a majority. *)
