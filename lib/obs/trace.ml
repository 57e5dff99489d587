(* The global tracer. A single process runs one simulation at a time (the
   whole repository is single-threaded and deterministic), so the tracer is
   process-global: instrumentation sites do not thread a handle through every
   constructor.

   Cost model: every instrumentation site is guarded by [on ()], a single
   ref load and branch. [hot] is true only when tracing is both enabled and
   at least one sink is subscribed, so "enabled but unsubscribed" costs the
   same as disabled — this is what bench/check_overhead.ml verifies. The
   sampler (when installed) is asked by the guards of the sampleable sites,
   [on_message] and [on_kind], after the hot check, so the disabled path is
   untouched; [emit] itself never asks it. *)

type sink = Event.t -> unit

let enabled = ref false
let sinks : (int * sink) list ref = ref []
let hot = ref false
let next_id = ref 0
let clock : (unit -> float) ref = ref (fun () -> 0.0)
let sampler : Sampling.t option ref = ref None
let meta : (string * string) list ref = ref []

(* The sink chain, precomposed at (un)subscribe time: the common case is a
   single sink, and calling it directly keeps the per-event dispatch to
   one indirect call instead of a list walk. *)
let chain : sink ref = ref (fun _ -> ())

let refresh () =
  hot := !enabled && not (List.is_empty !sinks);
  chain :=
    match !sinks with
    | [] -> fun _ -> ()
    | [ (_, s) ] -> s
    | l -> fun e -> List.iter (fun (_, s) -> s e) l

let set_enabled b =
  enabled := b;
  refresh ()

let is_enabled () = !enabled
let[@inline] on () = !hot

let subscribe f =
  incr next_id;
  sinks := (!next_id, f) :: !sinks;
  refresh ();
  !next_id

let unsubscribe id =
  sinks := List.filter (fun (i, _) -> i <> id) !sinks;
  refresh ()

let[@inline] on_message ~deliver send_id =
  !hot
  &&
  match !sampler with
  | None -> true
  | Some s -> Sampling.keep_message s ~deliver send_id

let[@inline] on_kind tag =
  !hot
  &&
  match !sampler with
  | None -> true
  | Some s -> Sampling.keep_tag s tag

let set_clock f = clock := f
let set_sampling s = sampler := s
let sampling () = !sampler
let set_run_meta m = meta := m
let run_meta () = !meta

let dispatch e =
  (* Sink cost is attributed to [obs/sink] when a profile is open, so
     "how much does tracing itself cost" shows up in attribution trees. *)
  if Profile.on () then Profile.wrap "obs/sink" (fun () -> !chain e)
  else !chain e

(* A sampleable event was decided by its site's guard, before it was
   built; every other kind is always kept. *)
let emit_at ~time ~node kind = if !hot then dispatch { Event.time; node; kind }

let emit ~node kind =
  if !hot then dispatch { Event.time = !clock (); node; kind }

let jsonl_sink oc : sink =
 fun e ->
  output_string oc (Tracebin.to_json e);
  output_char oc '\n'

let with_sink ~make_sink ~close f =
  let id = subscribe (make_sink ()) in
  let was = !enabled in
  set_enabled true;
  let finish () =
    unsubscribe id;
    set_enabled was;
    close ()
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

type recording = {
  events : Event.t list;
  dropped : int;
  dropped_by_kind : (string * int) list;
}

let with_recording ?(capacity = 1_000_000) f =
  let ring = Ring.create ~capacity in
  let drops : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let sink e =
    match Ring.push_evict ring e with
    | None -> ()
    | Some old ->
        let k = Event.kind_name old.Event.kind in
        Hashtbl.replace drops k
          (1 + Option.value (Hashtbl.find_opt drops k) ~default:0)
  in
  let v = with_sink ~make_sink:(fun () -> sink) ~close:ignore f in
  ( v,
    {
      events = Ring.to_list ring;
      dropped = Ring.dropped ring;
      dropped_by_kind =
        Replog.Det.sorted_bindings ~compare_key:String.compare drops;
    } )

let header_meta () =
  !meta @ match !sampler with None -> [] | Some s -> Sampling.to_meta s

let with_file ~file ~format f =
  match (format : Tracebin.format) with
  | Tracebin.Jsonl ->
      let oc = open_out file in
      with_sink ~make_sink:(fun () -> jsonl_sink oc) ~close:(fun () -> close_out oc) f
  | Tracebin.Bin ->
      let oc = open_out_bin file in
      (* The writer (and thus the header) is created on the first event, so
         run metadata installed by [Simnet.Net.create] inside [f] makes it
         into the header of the run it describes. *)
      let w : Tracebin.writer option ref = ref None in
      let get_writer () =
        match !w with
        | Some writer -> writer
        | None ->
            let writer =
              Tracebin.writer ~meta:(header_meta ()) (output_string oc)
            in
            w := Some writer;
            writer
      in
      let close () =
        Tracebin.flush (get_writer ());
        close_out oc
      in
      with_sink
        ~make_sink:(fun () -> fun e -> Tracebin.write (get_writer ()) e)
        ~close f
