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
  (* [kv], [client_cmds] and [ids] cover exactly the applied prefix
     [0, applied): [apply] moves it forward one entry at a time and
     [install] jumps it. [last_install] is an observation for checkers. *)
  type installed = {
    inst_seq : int;
    inst_cache_len : int;
    inst_payload : string;
  }

  type t = {
    mutable kv : Replog.Kv.t;
    mutable client_cmds : int;
    mutable applied : int;
    ids : Decided_cache.t;
    mutable last_install : installed option;
  }

  type received = { idx : int; envelope : string; snapshot : Replog.Snapshot.t }

  let create () =
    {
      kv = Replog.Kv.create ();
      client_cmds = 0;
      applied = 0;
      ids = Decided_cache.create ();
      last_install = None;
    }

  let copy s =
    {
      s with
      kv = Replog.Kv.copy s.kv;
      ids = Decided_cache.copy s.ids;
    }

  let client_cmds s = s.client_cmds
  let applied s = s.applied
  let ids s = s.ids
  let last_install s = s.last_install
  let key s = (Replog.Kv.snapshot s.kv, s.client_cmds, s.applied)

  let encode s ~idx =
    Replog.Snapshot.encode ~last_idx:idx ~client_cmds:s.client_cmds s.kv

  let no_command = Replog.Command.noop min_int

  (* Apply the entries [data.(first)] to [data.(stop - 1)] in order:
     commands that change the KV go to it one by one, no-ops are counted
     and applied at once, and each run of consecutive client ids is noted
     once. The run state is local: passed to a helper, it would be
     allocated. *)
  let apply_chunk s data first stop command x =
    let noops = ref 0 and clients = ref 0 in
    let run_first = ref 0 and run_len = ref 0 in
    for j = first to stop - 1 do
      let c = command x data.(j) in
      if c != no_command then begin
        (match c.Replog.Command.op with
        | Replog.Command.Noop | Replog.Command.Blob _ -> incr noops
        | Replog.Command.Kv_put _ | Replog.Command.Kv_get _
        | Replog.Command.Kv_del _ -> (
            match Replog.Kv.apply s.kv c with
            | Replog.Kv.Ok_unit | Replog.Kv.Value _ -> ()));
        if c.id >= 0 then begin
          incr clients;
          if !run_len > 0 && c.id = !run_first + !run_len then incr run_len
          else begin
            Decided_cache.note_run s.ids ~first:!run_first ~count:!run_len;
            run_first := c.id;
            run_len := 1
          end
        end
      end
    done;
    Decided_cache.note_run s.ids ~first:!run_first ~count:!run_len;
    Replog.Kv.apply_noops s.kv !noops;
    s.client_cmds <- s.client_cmds + !clients

  (* One pass over the chunks of [log] that hold [\[i, upto)]. *)
  let rec apply_from s log i upto command x =
    if i < upto then begin
      let first = Log.chunk_pos log i in
      let stop = min upto (Log.chunk_stop log i) in
      apply_chunk s (Log.chunk log i) first (first + stop - i) command x;
      apply_from s log stop upto command x
    end

  let apply s log ~upto command x =
    apply_from s log s.applied upto command x;
    if upto > s.applied then s.applied <- upto

  let trim s log ~node ~upto ~taken =
    let floor = Log.first_idx log in
    if upto > floor then begin
      Log.trim log ~upto;
      if Obs.Trace.on () then begin
        if taken then
          Obs.Trace.emit ~node
            (Obs.Event.Snapshot_taken
               {
                 idx = s.applied;
                 bytes = String.length (encode s ~idx:s.applied);
               });
        Obs.Trace.emit ~node
          (Obs.Event.Log_trimmed { upto; entries = upto - floor })
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

  (* Never rewind: a snapshot of a prefix already applied would roll the
     state back, since nothing re-applies the entries above it. *)
  let install s log ~node r =
    if r.idx <= s.applied then false
    else begin
      s.kv <- Replog.Snapshot.restore r.snapshot;
      s.client_cmds <- r.snapshot.client_cmds;
      s.applied <- r.idx;
      s.last_install <-
        Some
          {
            inst_seq =
              (match s.last_install with Some i -> i.inst_seq + 1 | None -> 1);
            inst_cache_len = Decided_cache.count s.ids;
            inst_payload = r.envelope;
          };
      Log.reset_to log ~offset:r.idx;
      if Obs.Trace.on () then
        Obs.Trace.emit ~node
          (Obs.Event.Snapshot_installed
             { idx = r.idx; bytes = String.length r.envelope });
      true
    end
end
