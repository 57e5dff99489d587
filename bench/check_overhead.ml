(* Guards the cost contracts of the observability hooks on the shared
   workload (bench/workload.ml). GUARD is one of:

   - trace:   tracing enabled with no sink subscribed costs < 5% over
              tracing off — an instrumentation site is one guard, a ref
              load and a branch (lib/obs/trace.mli);
   - profile: the profiler enabled with no capture started costs < 5% over
              profiler off — every wrapped hot site (simnet dispatch, the
              protocol adapter's handle/tick, batch flush, trace sink
              fan-out) stays one guard (lib/obs/profile.mli);
   - sampled: binary tracing under a 1-in-10 sampling policy costs < 10%
              over tracing off (lib/obs/sampling.mli).

   Otherwise `--trace`, `opx top` and sampled tracing would tax every
   benchmark number in this repository.

   Method: each round times the workload without and with the guard back
   to back and takes their ratio, so slow machine phases (frequency
   scaling, noisy neighbours) cancel per round; the median over rounds
   absorbs outliers. Even the median jitters by a few percent on shared
   hardware, so a failed attempt is retried: only a regression that fails
   every attempt fails the build. Every round also checks that the guarded
   run decides exactly what the plain run decides.

   Run with: dune build @check-overhead   (all three guards)
        or:  dune exec bench/check_overhead.exe -- GUARD *)

let attempts = 3
let rounds = 5

let trace_no_sink reps =
  Obs.Trace.set_enabled true;
  (* No sink: the guard must stay cold. *)
  assert (not (Obs.Trace.on ()));
  let r = Workload.time_reps reps in
  Obs.Trace.set_enabled false;
  r

let idle_profiler reps =
  Obs.Profile.set_enabled true;
  (* No [Obs.Profile.start]: without a capture the guard must stay cold. *)
  assert (not (Obs.Profile.on ()));
  let r = Workload.time_reps reps in
  Obs.Profile.set_enabled false;
  r

(* head:0 — measure the steady state, not the always-keep prefix. *)
let sampled_tracing reps =
  Workload.time_traced reps (Some (Obs.Sampling.create ~head:0 ~rate:10 ()))

(* GUARD -> (what is measured, threshold %, timed run with the guard on). *)
let guards =
  [
    ("trace", ("tracing on, no sink", 5.0, trace_no_sink));
    ("profile", ("profiler on, no capture", 5.0, idle_profiler));
    ("sampled", ("sampled binary tracing", 10.0, sampled_tracing));
  ]

(* Median over [rounds] of guarded/plain time, as a percentage overhead. *)
let measure_pct guarded =
  let reps = Workload.calibrate_reps () in
  let ratios =
    Array.init rounds (fun _ ->
        let off, decided_off = Workload.time_reps reps in
        let on, decided_on = guarded reps in
        if decided_off <> decided_on then begin
          Printf.printf
            "FAIL: the guard changed the simulation (decided %d vs %d)\n"
            decided_off decided_on;
          exit 1
        end;
        on /. Float.max off 1e-9)
  in
  Array.sort Float.compare ratios;
  100.0 *. (ratios.(rounds / 2) -. 1.0)

let () =
  let guard = if Array.length Sys.argv = 2 then Sys.argv.(1) else "" in
  match List.assoc_opt guard guards with
  | None ->
      prerr_endline "usage: check_overhead.exe trace|profile|sampled";
      exit 2
  | Some (what, threshold_pct, guarded) ->
      let rec go attempt =
        let pct = measure_pct guarded in
        Printf.printf
          "%-24s %+.2f%% (median of %d paired rounds, threshold %.0f%%, \
           attempt %d/%d)\n\
           %!"
          (what ^ ":") pct rounds threshold_pct attempt attempts;
        if pct < threshold_pct then
          Printf.printf "OK: %s fits the %.0f%% budget\n" what threshold_pct
        else if attempt < attempts then go (attempt + 1)
        else begin
          Printf.printf "FAIL: %s costs more than %.0f%% in every attempt\n"
            what threshold_pct;
          exit 1
        end
      in
      go 1
