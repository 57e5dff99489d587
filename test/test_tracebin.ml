(* Binary codec golden test: round-trips two traces through both encodings
   and expect-diffs the summary against test/tracebin_smoke.expected.

   Trace one is a hand-built witness list with exactly one event per
   [Obs.Event.kind] constructor — the [exercise] match below has no
   wildcard, so adding a constructor breaks this file at compile time
   until the witness list (and therefore codec coverage) is extended.
   Trace two is a real chaos-campaign replay: the faulty-raft canary's
   minimal failing schedule re-run with the tracer on, which exercises the
   codec over realistic timestamps, interned strings and event mixes.

   Equality is compared on [Tracebin.to_json] lines: JSONL prints times as
   milliseconds with three decimals and the binary codec stores integer
   microseconds, so both encodings normalise to the same precision and a
   faithful codec reproduces the JSON stream byte for byte. The test also
   pins header metadata / sampling-rate round-trips, the sampler's
   head+rate arithmetic, and streaming-vs-batch analyzer equivalence on
   the campaign trace. *)

module Ev = Obs.Event
module Tb = Obs.Tracebin

(* Compile guard: no wildcard. A new constructor fails this match. *)
let exercise (k : Ev.kind) : unit =
  match k with
  | Ev.Ballot_increment _ -> ()
  | Ev.Leader_elected _ -> ()
  | Ev.Leader_changed _ -> ()
  | Ev.Prepare_round _ -> ()
  | Ev.Promise_sent _ -> ()
  | Ev.Accept_sent _ -> ()
  | Ev.Accepted_idx _ -> ()
  | Ev.Decided _ -> ()
  | Ev.Proposed _ -> ()
  | Ev.Batch_flush _ -> ()
  | Ev.Cap_change _ -> ()
  | Ev.Session_drop _ -> ()
  | Ev.Session_up _ -> ()
  | Ev.Link_cut _ -> ()
  | Ev.Link_heal _ -> ()
  | Ev.Crashed -> ()
  | Ev.Recovered -> ()
  | Ev.Reconfig _ -> ()
  | Ev.Msg_send _ -> ()
  | Ev.Msg_deliver _ -> ()
  | Ev.Msg_drop _ -> ()
  | Ev.Snapshot_taken _ -> ()
  | Ev.Snapshot_installed _ -> ()
  | Ev.Log_trimmed _ -> ()
  | Ev.Chaos_fault _ -> ()
  | Ev.Chaos_invoke _ -> ()
  | Ev.Chaos_response _ -> ()
  | Ev.Chaos_timeout _ -> ()

let b = { Ev.n = 9; prio = 2; pid = 1 }

let one_of_each : Ev.t list =
  let at i node kind = { Ev.time = float_of_int (i * 125) /. 1000.0; node; kind } in
  [
    at 0 0 (Ev.Ballot_increment b);
    at 1 0 (Ev.Leader_elected b);
    at 2 1 (Ev.Leader_changed b);
    at 3 0 (Ev.Prepare_round { b; log_idx = 17; decided_idx = 12 });
    at 4 2 (Ev.Promise_sent { b; log_idx = 17; decided_idx = 12 });
    at 5 0 (Ev.Accept_sent { b; start_idx = 13; count = 4 });
    at 6 2 (Ev.Accepted_idx { b; log_idx = 17 });
    at 7 0 (Ev.Decided { b; decided_idx = 17 });
    at 8 0 (Ev.Proposed { log_idx = 18; cmd_id = 4711 });
    at 9 0
      (Ev.Batch_flush { entries = 8; followers = 2; cap = 64; trigger = "size" });
    at 10 0 (Ev.Cap_change { cap_from = 64; cap_to = 32 });
    at 11 1 (Ev.Session_drop { peer = 2; session = 3 });
    at 12 1 (Ev.Session_up { peer = 2; session = 4 });
    at 13 (-1) (Ev.Link_cut { a = 0; b = 2 });
    at 14 (-1) (Ev.Link_heal { a = 0; b = 2 });
    at 15 2 Ev.Crashed;
    at 16 2 Ev.Recovered;
    at 17 0 (Ev.Reconfig { config_id = 2; milestone = "prepared" });
    at 18 0 (Ev.Msg_send { dst = 1; size = 120; send_id = 77; lc = 40 });
    at 19 1 (Ev.Msg_deliver { src = 0; size = 120; send_id = 77; lc = 41 });
    at 20 0
      (Ev.Msg_drop
         { src = 0; dst = 2; reason = "link-down"; session = 3; send_id = 78 });
    at 21 1 (Ev.Snapshot_taken { idx = 12; bytes = 640 });
    at 22 2 (Ev.Snapshot_installed { idx = 12; bytes = 640 });
    at 23 1 (Ev.Log_trimmed { upto = 12; entries = 12 });
    at 24 (-1) (Ev.Chaos_fault { step = 5; fault = "link_cut(0,2)" });
    at 25 (-1) (Ev.Chaos_invoke { client = 1; op_id = 9; op = "put k v" });
    at 26 (-1) (Ev.Chaos_response { client = 1; op_id = 9; result = "ok" });
    at 27 (-1) (Ev.Chaos_timeout { client = 2; op_id = 10 });
  ]

let jsonl_of events =
  String.concat "" (List.map (fun e -> Tb.to_json e ^ "\n") events)

let bin_of ?meta events =
  let buf = Buffer.create 4096 in
  let w = Tb.writer ?meta (Buffer.add_string buf) in
  List.iter (Tb.write w) events;
  Tb.flush w;
  Buffer.contents buf

let decode_all s =
  let src = Tb.of_string s in
  let acc = ref [] in
  (match Tb.iter src (fun e -> acc := e :: !acc) with
  | Ok () -> ()
  | Error e -> failwith e);
  (List.rev !acc, src)

(* Both encodings normalise time to integer microseconds in their JSON
   rendering, so a faithful round trip reproduces the JSONL stream. *)
let round_trips label events =
  let reference = jsonl_of events in
  let via_bin, _ = decode_all (bin_of events) in
  let via_jsonl, _ = decode_all (jsonl_of events) in
  Printf.printf "%s: %d events, bin round-trip exact: %b, jsonl round-trip exact: %b\n"
    label (List.length events)
    (String.equal reference (jsonl_of via_bin))
    (String.equal reference (jsonl_of via_jsonl))

let kinds_covered events =
  let seen = Array.make Ev.num_kinds false in
  List.iter (fun (e : Ev.t) -> seen.(Ev.kind_tag e.kind) <- true) events;
  Array.fold_left (fun a c -> if c then a + 1 else a) 0 seen

let () =
  print_string "== tracebin smoke ==\n";
  List.iter (fun (e : Ev.t) -> exercise e.Ev.kind) one_of_each;
  Printf.printf "constructors: %d, witness list covers: %d\n" Ev.num_kinds
    (kinds_covered one_of_each);
  round_trips "one-of-each" one_of_each;

  (* A real trace: replay the faulty-raft canary's first minimal failing
     schedule (fixed seeds, so the trace is identical on every machine). *)
  let faulty = List.assoc "faulty-raft" Chaos.Campaign.protocols in
  let cfg = Chaos.Campaign.default_config in
  let failure =
    let rec first = function
      | [] -> failwith "no failing seed (canary not caught)"
      | seed :: rest -> (
          match
            (Chaos.Campaign.run faulty cfg ~seed ~episodes:2)
              .Chaos.Campaign.s_failures
          with
          | f :: _ -> f
          | [] -> first rest)
    in
    first [ 1; 2; 3; 42; 46 ]
  in
  let _, recording =
    Obs.Trace.with_recording (fun () ->
        Chaos.Campaign.replay faulty cfg ~seed:failure.Chaos.Campaign.f_seed
          ~schedule:failure.Chaos.Campaign.f_minimal)
  in
  let campaign = recording.Obs.Trace.events in
  Printf.printf "campaign trace (seed %d): kinds covered: %d/%d\n"
    failure.Chaos.Campaign.f_seed (kinds_covered campaign) Ev.num_kinds;
  round_trips "campaign" campaign;
  Printf.printf "union covers all constructors: %b\n"
    (kinds_covered (one_of_each @ campaign) = Ev.num_kinds);

  (* Header: run metadata and sampling rates survive encode/decode. *)
  let sampler = Obs.Sampling.create ~head:2 ~rate:4 () in
  let meta =
    [ ("nodes", "3"); ("seed", "9") ] @ Obs.Sampling.to_meta sampler
  in
  let _, src = decode_all (bin_of ~meta one_of_each) in
  Printf.printf "header meta round-trip: %b, rates parsed back: %b\n"
    (List.for_all
       (fun (k, v) ->
         match List.assoc_opt k (Tb.meta src) with
         | Some v' -> String.equal v v'
         | None -> false)
       meta)
    (List.for_all
       (fun (_, r) -> r = 4)
       (Obs.Sampling.rates_of_meta (Tb.meta src))
    && Obs.Sampling.rates_of_meta (Tb.meta src) <> []);

  (* Sampler arithmetic: head 2 then 1-in-4 of a 50-proposal burst. *)
  let s = Obs.Sampling.create ~head:2 ~rate:4 () in
  let kept = ref 0 in
  for _ = 1 to 50 do
    if Obs.Sampling.keep_tag s Ev.proposed_tag then incr kept
  done;
  Printf.printf "sampling head=2 rate=4: kept %d of 50 proposals\n" !kept;

  (* Streaming fold (default bounded window / exact-percentile / causal
     caps) and the batch analysis agree on an un-sampled trace. *)
  let batch = Obs.Analyze.run campaign in
  let n =
    1 + List.fold_left (fun a (e : Ev.t) -> max a e.Ev.node) 0 campaign
  in
  let stream = Obs.Analyze.Stream.create ~n_hint:n () in
  List.iter (Obs.Analyze.Stream.observe stream) campaign;
  let streamed = Obs.Analyze.Stream.finish stream in
  Printf.printf "streaming == batch (text): %b\n"
    (String.equal (Obs.Analyze.to_string batch)
       (Obs.Analyze.to_string streamed))
