(* The shared workload of the observability overhead gates
   (check_overhead.exe): a short 3-server Omni-Paxos normal execution on
   the cluster driver, exercising every instrumented hot path — BLE
   heartbeats, accept/decide, the adapter's handle/tick frames and decide
   scan, simnet send/deliver, batch flush. *)

module C = Rsm.Cluster.Make (Rsm.Omni_adapter)

(* One short normal execution; returns the decided index as a checksum so
   the work cannot be optimised away. *)
let run_once seed =
  let c = C.create { Rsm.Cluster.default_config with seed } in
  C.run_ms c 500.0;
  let leader =
    match C.leader c with
    | Some l -> l
    | None -> failwith "bench workload: no leader elected"
  in
  for wave = 0 to 9 do
    for i = 0 to 199 do
      let cmd = Replog.Command.noop ((wave * 200) + i) in
      ignore (C.propose_at c ~node:leader cmd)
    done;
    C.run_ms c 100.0
  done;
  Rsm.Omni_adapter.decided_index (C.node c leader)

let time_reps reps =
  let t0 = Sys.time () in
  let acc = ref 0 in
  for s = 1 to reps do
    acc := !acc + run_once s
  done;
  (Sys.time () -. t0, !acc)

(* Calibrate so each trial takes long enough to dwarf Sys.time's resolution
   and scheduler noise. *)
let calibrate_reps () =
  let t1, _ = time_reps 1 in
  max 3 (int_of_float (ceil (0.3 /. Float.max t1 1e-4)))

(* [time_reps] with tracing on into a binary encoder that discards its
   output, under [sampling]. *)
let time_traced reps sampling =
  Obs.Trace.set_sampling sampling;
  Obs.Trace.set_enabled true;
  let w = Obs.Tracebin.writer ignore in
  let id = Obs.Trace.subscribe (Obs.Tracebin.write w) in
  let r = time_reps reps in
  Obs.Trace.unsubscribe id;
  Obs.Trace.set_enabled false;
  Obs.Trace.set_sampling None;
  r
