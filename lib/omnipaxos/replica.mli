(** An Omni-Paxos server: one Ballot Leader Election instance composed with
    one Sequence Paxos instance (Figure 2), behind a single message type and
    a single [tick] clock.

    [tick] must be called once per tick period; every [hb_ticks] ticks a BLE
    heartbeat round closes (so the election timeout is
    [hb_ticks * tick period]). Sequence Paxos batches are flushed on every
    tick. *)

type msg = Ble_msg of Ble.msg | Sp_msg of Sequence_paxos.msg

module Storage : sig
  (** The server's stable storage; survives crashes. Keep it outside the
      replica and pass it again when rebuilding after a crash. *)
  type t = { ble : Ble.persistent; sp : Sequence_paxos.persistent }

  val create : unit -> t
end

type t

val create :
  id:int ->
  peers:int list ->
  ?qc_signal:bool ->
  ?hb_ticks:int ->
  ?batching:Batching.config ->
  ?compaction:Compaction.config ->
  storage:Storage.t ->
  send:(dst:int -> msg -> unit) ->
  ?on_decide:(int -> unit) ->
  unit ->
  t
(** [hb_ticks] defaults to 10. [batching] selects the Sequence Paxos
    batch-flush policy (default {!Batching.fixed}); [compaction] (default
    {!Compaction.disabled}) the snapshot-and-trim trigger; see
    {!Sequence_paxos.create}. *)

val handle : t -> src:int -> msg -> unit
val tick : t -> unit
val session_reset : t -> peer:int -> unit

val recover : t -> unit
(** Run the fail-recovery protocol after rebuilding the replica on its old
    storage. *)

val propose : t -> Entry.t -> bool
val propose_cmd : t -> Replog.Command.t -> bool

val propose_reconfigure : t -> config_id:int -> nodes:int list -> bool
(** Append the stop-sign that ends this configuration (§6). *)

val request_trim : t -> upto:int -> bool
(** Leader-side log compaction; see {!Sequence_paxos.request_trim}. *)

val first_idx : t -> int
(** The log's trim point; see {!Sequence_paxos.first_idx}. *)

val store : t -> Compaction.Store.t
(** The applied state of the decided prefix, which {!Compaction.Store.encode}
    ships as a snapshot; see {!Sequence_paxos.store}. *)

val is_leader : t -> bool
val leader_pid : t -> int option
val decided_idx : t -> int
val log_length : t -> int
val read_decided : t -> from:int -> Entry.t list
val read_log : t -> Entry.t Replog.Log.t
val stop_sign : t -> Entry.stop_sign option

val is_stopped : t -> bool
(** Whether a stop-sign has been appended/adopted in this configuration. *)

val sequence_paxos : t -> Sequence_paxos.t
val ble : t -> Ble.t
val msg_size : msg -> int
