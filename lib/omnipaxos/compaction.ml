(* Snapshot/compaction trigger policy and the compacted-prefix store. See
   compaction.mli. *)

module Log = Replog.Log

type config = { snapshot_interval : int; retain : int }

let disabled = { snapshot_interval = 0; retain = 0 }
let enabled c = c.snapshot_interval > 0

let validated c =
  if c.snapshot_interval < 0 then
    invalid_arg "Compaction.validated: snapshot_interval < 0";
  if c.retain < 0 then invalid_arg "Compaction.validated: retain < 0";
  c

let make ?(retain = 0) snapshot_interval =
  validated { snapshot_interval; retain }

let trim_point c ~floor ~decided =
  if enabled c && decided - floor >= c.snapshot_interval then
    decided - c.retain
  else floor

module Store = struct
  (* [kv] and [client_cmds] cover exactly [0, Log.first_idx log) of the log
     the store is used with: every function that moves the trim point
     updates them in the same call. *)
  type t = { mutable kv : Replog.Kv.t; mutable client_cmds : int }

  type received = { idx : int; envelope : string; snapshot : Replog.Snapshot.t }

  let create () = { kv = Replog.Kv.create (); client_cmds = 0 }
  let copy s = { kv = Replog.Kv.copy s.kv; client_cmds = s.client_cmds }
  let client_cmds s = s.client_cmds
  let key s = (Replog.Kv.snapshot s.kv, s.client_cmds)

  let encode s log =
    Replog.Snapshot.encode ~last_idx:(Log.first_idx log)
      ~client_cmds:s.client_cmds s.kv

  let fold_command s (c : Replog.Command.t) =
    (match Replog.Kv.apply s.kv c with
    | Replog.Kv.Ok_unit | Replog.Kv.Value _ -> ());
    if c.id >= 0 then s.client_cmds <- s.client_cmds + 1

  module type ENTRY = sig
    type t

    val iter_command : ('a -> Replog.Command.t -> unit) -> 'a -> t -> unit
  end

  module Fold (E : ENTRY) = struct
    let compact s log ~node ~upto ~taken =
      let floor = Log.first_idx log in
      if upto > floor then begin
        for i = floor to upto - 1 do
          E.iter_command fold_command s (Log.get log i)
        done;
        Log.trim log ~upto;
        if Obs.Trace.on () then begin
          if taken then
            Obs.Trace.emit ~node
              (Obs.Event.Snapshot_taken
                 { idx = upto; bytes = String.length (encode s log) });
          Obs.Trace.emit ~node
            (Obs.Event.Log_trimmed { upto; entries = upto - floor })
        end
      end
  end

  let decode ~idx envelope =
    match Replog.Snapshot.decode envelope with
    | Ok snapshot when snapshot.last_idx = idx -> Ok { idx; envelope; snapshot }
    | Ok snapshot ->
        Error
          (Printf.sprintf "snapshot covers [0, %d), message says [0, %d)"
             snapshot.last_idx idx)
    | Error m -> Error m

  let install s log ~node r =
    s.kv <- Replog.Snapshot.restore r.snapshot;
    s.client_cmds <- r.snapshot.client_cmds;
    Log.reset_to log ~offset:r.idx;
    if Obs.Trace.on () then
      Obs.Trace.emit ~node
        (Obs.Event.Snapshot_installed
           { idx = r.idx; bytes = String.length r.envelope })
end
