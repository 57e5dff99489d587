(* The `opx top` engine: drive a protocol cluster under the closed-loop
   client with the profiler, the health monitor and the simnet metrics all
   on, sampling a rendered dashboard frame every [interval_ms] of simulated
   time.

   Everything in a frame is a pure function of the simulated execution —
   decided counts, client latency percentiles, queue depths, heap
   statistics, health alerts, and the profiler's calls/sim-time columns —
   so the final frame is byte-identical across double runs of a seed. The
   profiler's wall-time/allocation columns are the one nondeterministic
   measurement; they are included only when [wall] is set (the live
   dashboard), never in [--once]/golden-test output. *)

module Net = Simnet.Net

type scenario = Normal | Chained

let scenario_of_string = function
  | "normal" -> Some Normal
  | "chained" -> Some Chained
  | _ -> None

let scenario_name = function Normal -> "normal" | Chained -> "chained"

type result = {
  final_frame : string;  (** summary frame plus the full attribution tree *)
  profile : Obs.Profile.t;
  decided : int;
}

module Make (P : Protocol.PROTOCOL) = struct
  module C = Cluster.Make (P)

  (* One dashboard frame. [rate] is proposals decided per second over the
     window that ended at this sample (0 for the final summary frame, whose
     window is partial). *)
  let render ~wall ~top ~cfg ~(client : Client.t) ~rate c health =
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let net = C.net c in
    let n = cfg.Cluster.n in
    add "opx top — %s  n=%d seed=%d  t=%.1f ms\n" P.name n cfg.Cluster.seed
      (C.now c);
    let lat = Client.latency client in
    add "decided %d (%.0f/s)   leader %s   client p50 %.2f ms  p99 %.2f ms\n"
      (C.max_decided c) rate
      (match C.leader c with Some l -> string_of_int l | None -> "-")
      (Obs.Metric.Histogram.percentile lat ~p:50.0)
      (Obs.Metric.Histogram.percentile lat ~p:99.0);
    let alerts = Obs.Health.alerts health in
    let suspects = Obs.Health.suspects health in
    add "health: %d alerts, %d open suspects%s\n" (List.length alerts)
      (List.length suspects)
      (match List.rev alerts with
      | [] -> ""
      | a :: _ ->
          Printf.sprintf "   last: %s %s"
            (match a.Obs.Health.edge with
            | Obs.Health.Trigger -> "TRIGGER"
            | Obs.Health.Clear -> "CLEAR")
            a.Obs.Health.what);
    add "%-5s %-5s %10s %10s %10s\n" "node" "up" "decided" "egress-q"
      "egress-hw";
    for i = 0 to n - 1 do
      add "%-5d %-5s %10d %10d %10d\n" i
        (if Net.is_up net i then "yes" else "DOWN")
        (P.decided_count (C.node c i))
        (Net.egress_queue_depth net i)
        (Net.egress_queue_high_water net i)
    done;
    let hs = Net.heap_stats net in
    add "heap: size %d  high-water %d  pushes %d  pops %d   in-flight %d\n"
      hs.Net.hs_size hs.Net.hs_high_water hs.Net.hs_pushes hs.Net.hs_pops
      (Net.deliver_in_flight net);
    add "dispatch:";
    List.iter (fun (k, v) -> add " %s=%d" k v) (Net.dispatch_counts net);
    add "\n";
    (match Obs.Profile.live () with
    | Some p ->
        Buffer.add_string buf (Obs.Profile.to_string ~wall ~top ~tree:false p)
    | None -> ());
    Buffer.contents buf

  let run ?(wall = false) ?(top = 8) ?(scenario = Normal) ?on_frame ?on_sample
      ~cfg ~cp ~duration_ms ~interval_ms () =
    (* Fresh global registry so frames show only this run's metrics and
       double runs render identically. *)
    Obs.Metric.Registry.clear Obs.Metric.Registry.default;
    let c = C.create cfg in
    let health =
      Obs.Health.create
        (Obs.Health.default_config ~n:cfg.Cluster.n
           ~election_timeout_ms:cfg.Cluster.election_timeout_ms)
    in
    let sink_id = Obs.Trace.subscribe (Obs.Health.observe health) in
    let trace_was = Obs.Trace.is_enabled () in
    Obs.Trace.set_enabled true;
    let profile_was = Obs.Profile.is_enabled () in
    Obs.Profile.start ();
    Obs.Profile.set_enabled true;
    let finish () =
      let profile = Obs.Profile.stop () in
      Obs.Profile.set_enabled profile_was;
      Obs.Trace.unsubscribe sink_id;
      Obs.Trace.set_enabled trace_was;
      profile
    in
    let client =
      try
        let client = C.start_client c ~cp in
        (match scenario with
        | Normal -> ()
        | Chained ->
            (* Chain partition over the middle of the run: leader at one
               end, healed at 75% so recovery shows up in the frames. *)
            Net.schedule (C.net c) ~delay:(duration_ms *. 0.4) (fun () ->
                Scenario.chain_from (C.net c)
                  ~leader:(Option.value (C.leader c) ~default:0));
            Net.schedule (C.net c) ~delay:(duration_ms *. 0.75) (fun () ->
                Scenario.heal (C.net c)));
        let last_decided = ref 0 in
        let sample () =
          Net.publish_metrics (C.net c);
          (match on_sample with Some f -> f ~time:(C.now c) | None -> ());
          match on_frame with
          | None -> ()
          | Some f ->
              let decided = C.max_decided c in
              let rate =
                float_of_int (decided - !last_decided)
                /. (interval_ms /. 1000.0)
              in
              last_decided := decided;
              f (render ~wall ~top ~cfg ~client ~rate c health)
        in
        let rec sample_loop () =
          Net.schedule (C.net c) ~delay:interval_ms (fun () ->
              sample ();
              sample_loop ())
        in
        sample_loop ();
        C.run_ms c duration_ms;
        Client.stop client;
        Net.publish_metrics (C.net c);
        (match on_sample with Some f -> f ~time:(C.now c) | None -> ());
        client
      with e ->
        let (_ : Obs.Profile.t) = finish () in
        raise e
    in
    (* Stop the profiler first: the summary frame then skips the live
       profile section and we append the complete report — flat table plus
       attribution tree — once, from the finished capture. *)
    let profile = finish () in
    let frame = render ~wall ~top ~cfg ~client ~rate:0.0 c health in
    {
      final_frame = frame ^ Obs.Profile.to_string ~wall ~top profile;
      profile;
      decided = C.max_decided c;
    }
end
