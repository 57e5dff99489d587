(* Trace-scale smoke: a fast slice of the trace_scale bench contract, in
   the default runtest (and as `dune build @trace-scale-smoke`). Runs the
   deterministic synthetic workload at 50k events — big enough to cross
   the analyzer's stream-window and string-interning boundaries, small
   enough for CI — and asserts, rather than expect-diffs, so the checks
   hold under any event-count tweak:

   - the binary codec round-trips the stream exactly (JSONL-normalised),
     and decodes what it encoded event for event;
   - binary is at least 5x smaller than JSONL on this workload (the
     bench gates the same ratio at 1M events);
   - the streaming analyzer with default bounds equals the batch analyzer
     byte for byte, in both renderings, and is itself deterministic;
   - a bin -> jsonl -> bin convert cycle preserves the event stream. *)

let fail fmt = Printf.ksprintf failwith fmt

let check name b = if not b then fail "check failed: %s" name

let events = 50_000

let jsonl_of evs =
  let b = Buffer.create (events * 64) in
  List.iter
    (fun e ->
      Buffer.add_string b (Obs.Tracebin.to_json e);
      Buffer.add_char b '\n')
    evs;
  Buffer.contents b

let bin_of evs =
  let b = Buffer.create (events * 8) in
  let w = Obs.Tracebin.writer ~meta:[ ("gen", "synth") ] (Buffer.add_string b) in
  List.iter (Obs.Tracebin.write w) evs;
  Obs.Tracebin.flush w;
  Buffer.contents b

let decode s =
  let src = Obs.Tracebin.of_string s in
  let acc = ref [] in
  (match Obs.Tracebin.iter src (fun e -> acc := e :: !acc) with
  | Ok () -> ()
  | Error e -> fail "decode error: %s" e);
  List.rev !acc

let () =
  let evs = Obs.Synth.to_list ~nodes:5 ~seed:1 ~events () in
  check "synth emits the requested count" (List.length evs = events);

  let jsonl = jsonl_of evs in
  let bin = bin_of evs in
  let decoded = decode bin in
  check "bin round-trip is exact" (String.equal jsonl (jsonl_of decoded));
  let ratio =
    float_of_int (String.length jsonl) /. float_of_int (String.length bin)
  in
  if ratio < 5.0 then fail "compression ratio %.2f < 5.0" ratio;

  (* Convert cycle: bin -> jsonl -> bin, compared as event streams (the
     jsonl hop drops the binary header, so bytes differ, events must not). *)
  let back = decode (bin_of (decode (jsonl_of decoded))) in
  check "convert cycle preserves events" (String.equal jsonl (jsonl_of back));

  let batch = Obs.Analyze.run evs in
  let n = 5 in
  let streamed () =
    let s = Obs.Analyze.Stream.create ~n_hint:n () in
    List.iter (Obs.Analyze.Stream.observe s) evs;
    Obs.Analyze.Stream.finish s
  in
  let s1 = streamed () in
  let s2 = streamed () in
  check "streaming == batch (text)"
    (String.equal (Obs.Analyze.to_string batch) (Obs.Analyze.to_string s1));
  check "streaming == batch (json)"
    (String.equal
       (Bench_report.Json.to_string (Obs.Analyze.to_json batch))
       (Bench_report.Json.to_string (Obs.Analyze.to_json s1)));
  check "streaming is deterministic"
    (String.equal (Obs.Analyze.to_string s1) (Obs.Analyze.to_string s2));

  (* The synthetic workload must keep every invariant green, or scale
     numbers measured over it are numbers about a broken trace. *)
  List.iter
    (fun (name, r) ->
      match r with
      | Ok () -> ()
      | Error (v : Obs.Invariant.violation) ->
          fail "synth trace violates %s: %s" name v.Obs.Invariant.message)
    s1.Obs.Analyze.invariants;

  print_endline "trace-scale smoke: OK"
