(** Entries of the replicated log.

    A [Stop_sign] is the reconfiguration sentinel of §6: once it is decided
    in configuration [i], no further entry can be decided in that
    configuration, and the service layer starts configuration [i+1] with the
    listed nodes. By construction a stop-sign is always the last entry of a
    configuration's log. *)

type stop_sign = { config_id : int; nodes : int list; metadata : string }

type t = Cmd of Replog.Command.t | Stop_sign of stop_sign

let cmd c = Cmd c
let is_stop_sign = function Stop_sign _ -> true | Cmd _ -> false

(* The command {!Compaction.Store.apply} applies for an entry; [_] is the
   unused state argument of its function. *)
let command _ = function Cmd c -> c | Stop_sign _ -> Compaction.Store.no_command

let size = function
  | Cmd c -> Replog.Command.size c
  | Stop_sign ss -> 24 + (8 * List.length ss.nodes) + String.length ss.metadata

let stop_sign_equal a b =
  Int.equal a.config_id b.config_id
  && List.equal Int.equal a.nodes b.nodes
  && String.equal a.metadata b.metadata

let equal a b =
  match (a, b) with
  | Cmd x, Cmd y -> Replog.Command.equal x y
  | Stop_sign x, Stop_sign y -> stop_sign_equal x y
  | Cmd _, Stop_sign _ | Stop_sign _, Cmd _ -> false

let pp ppf = function
  | Cmd c -> Replog.Command.pp ppf c
  | Stop_sign ss ->
      Format.fprintf ppf "SS(cfg=%d,nodes=[%s])" ss.config_id
        (String.concat ";" (List.map string_of_int ss.nodes))
