(* The closed-loop client's latency bookkeeping, driven through scripted
   callbacks: the run-length submit ring must produce exactly the histogram
   of the per-command FIFO queue it replaced, and a poll's allocation must
   not grow with the number of commands it retires. *)

module H = Obs.Metric.Histogram

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* What the harness controls at each poll. *)
type step = {
  dt : float;  (** simulated ms since the previous poll *)
  decide : int;  (** commands newly decided *)
  lead : int option;  (** the leader the client sees *)
  accept : int;  (** [propose_batch] accepts at most this many *)
  reset : bool;  (** call [reset_latency] after the poll *)
}

(* The client's poll over a [float Queue.t] of per-command submit times:
   the reference model. *)
module Queue_model = struct
  type t = {
    cp : int;
    retry_ms : float;
    mutable in_flight : int;
    mutable last_decided : int;
    mutable last_progress : float;
    submits : float Queue.t;
    lat : H.t;
  }

  let create ~cp ~retry_ms ~now =
    {
      cp;
      retry_ms;
      in_flight = 0;
      last_decided = 0;
      last_progress = now;
      submits = Queue.create ();
      lat = H.create ();
    }

  let poll m ~time ~decided ~lead ~propose =
    let newly = decided - m.last_decided in
    if newly > 0 then begin
      m.last_decided <- decided;
      m.in_flight <- max 0 (m.in_flight - newly);
      m.last_progress <- time;
      for _ = 1 to min newly (Queue.length m.submits) do
        H.observe m.lat (time -. Queue.pop m.submits)
      done
    end;
    if m.in_flight > 0 && time -. m.last_progress > m.retry_ms then begin
      m.in_flight <- 0;
      m.last_progress <- time;
      Queue.clear m.submits
    end;
    if m.in_flight < m.cp then
      match lead with
      | None -> ()
      | Some _ ->
          let got = propose (m.cp - m.in_flight) in
          m.in_flight <- m.in_flight + got;
          for _ = 1 to got do
            Queue.push time m.submits
          done
end

(* Everything a histogram exposes, floats compared bit for bit. *)
let view h =
  let bits = Int64.bits_of_float in
  ( H.buckets h,
    H.count h,
    List.map bits [ H.sum h; H.min_value h; H.max_value h ],
    List.map
      (fun p -> bits (H.percentile h ~p))
      [ 0.0; 25.0; 50.0; 99.0; 99.9; 100.0 ] )

(* Run [steps] through both the client and the model; true when their
   latency histograms and decided counts agree after every poll. *)
let agree ~cp ~retry_ms steps =
  let time = ref 0.0 and decided = ref 0 and cur = ref None in
  let pending = ref (fun () -> ()) in
  let accept = ref 0 in
  let client =
    Rsm.Client.start ~retry_ms ~poll_ms:1.0 ~cp
      {
        Rsm.Client.now = (fun () -> !time);
        decided = (fun () -> !decided);
        leader = (fun () -> !cur);
        propose_batch = (fun ~leader:_ ~first_id:_ ~count -> min count !accept);
        schedule = (fun ~delay:_ f -> pending := f);
      }
  in
  let model = Queue_model.create ~cp ~retry_ms ~now:0.0 in
  List.for_all
    (fun s ->
      time := !time +. s.dt;
      decided := !decided + s.decide;
      cur := s.lead;
      accept := s.accept;
      !pending ();
      Queue_model.poll model ~time:!time ~decided:!decided ~lead:s.lead
        ~propose:(fun count -> min count s.accept);
      if s.reset then begin
        Rsm.Client.reset_latency client;
        H.reset model.Queue_model.lat
      end;
      view (Rsm.Client.latency client) = view model.Queue_model.lat
      && Rsm.Client.decided client = model.Queue_model.last_decided)
    steps

let gen_step =
  QCheck.Gen.(
    map
      (fun ((dt, decide), (lead, accept, reset)) ->
        { dt; decide; lead; accept; reset })
      (pair
         (pair
            (oneof [ float_range 0.0 5.0; float_range 0.0 400.0 ])
            (frequency [ (2, return 0); (3, int_bound 40) ]))
         (triple
            (frequency [ (4, return (Some 0)); (1, return (Some 1)); (1, return None) ])
            (frequency [ (1, return 0); (3, int_bound 8); (1, int_bound 100) ])
            (frequency [ (15, return false); (1, return true) ]))))

let print_step s =
  Printf.sprintf "{dt=%g; decide=%d; lead=%s; accept=%d; reset=%b}" s.dt s.decide
    (match s.lead with Some l -> string_of_int l | None -> "-")
    s.accept s.reset

(* Random decided increments (partial pops inside a run, more than was
   submitted), [propose_batch] results including 0, leaderless polls, gaps
   long enough to take the retry path, latency resets; with a huge retry
   interval nothing is abandoned and dozens of runs pile up past the ring's
   initial capacity. *)
let prop_matches_queue_model =
  QCheck.Test.make ~name:"latency equals the per-command queue model" ~count:300
    QCheck.(
      pair
        (make ~print:string_of_float (Gen.oneofl [ 50.0; 1e9 ]))
        (make
           ~print:(fun l -> String.concat "; " (List.map print_step l))
           Gen.(list_size (0 -- 120) gen_step)))
    (fun (retry_ms, steps) -> agree ~cp:200 ~retry_ms steps)

(* Three-command batches: ten runs queue up, five commands decide (the
   oldest run leaves, the next is cut), so the ring's head has moved when
   100 more runs grow it past its initial 16 slots; partial decides then
   retire everything. *)
let test_ring_growth () =
  let quiet k =
    List.init k (fun _ ->
        { dt = 1.0; decide = 0; lead = Some 0; accept = 3; reset = false })
  in
  let decide d = { dt = 1.0; decide = d; lead = None; accept = 0; reset = false } in
  check "growth and partial pops match the model" true
    (agree ~cp:1000 ~retry_ms:1e9
       (quiet 10 @ [ decide 5 ] @ quiet 100
       @ List.map decide [ 7; 1; 30; 45; 17; 400 ]))

(* Words allocated by [polls] polls once warm: every poll decides everything
   in flight and the leader accepts a full window, so each poll retires and
   submits [cp] commands. The stubs allocate nothing themselves. *)
let words_per_polls ~cp ~polls =
  let st = ref 0 and time = ref 0.0 in
  let lead = Some 0 in
  let pending = ref (fun () -> ()) in
  let client =
    Rsm.Client.start ~poll_ms:1.0 ~cp
      {
        Rsm.Client.now = (fun () -> !time);
        decided = (fun () -> !st);
        leader = (fun () -> lead);
        propose_batch = (fun ~leader:_ ~first_id:_ ~count -> count);
        schedule = (fun ~delay:_ f -> pending := f);
      }
  in
  let run k =
    for _ = 1 to k do
      time := !time +. 1.0;
      st := !st + cp;
      !pending ()
    done
  in
  run 300;
  let w0 = int_of_float (Gc.minor_words ()) in
  run polls;
  let words = int_of_float (Gc.minor_words ()) - w0 in
  check_int "everything decided" ((300 + polls) * cp) (Rsm.Client.decided client);
  check_int "every command sampled"
    ((300 + polls - 1) * cp)
    (H.count (Rsm.Client.latency client));
  words

let test_poll_alloc_flat () =
  let small = words_per_polls ~cp:10 ~polls:100 in
  let large = words_per_polls ~cp:10_000 ~polls:100 in
  check_int "poll words do not grow with cp" small large

let () =
  Alcotest.run "client"
    [
      ( "latency",
        [
          QCheck_alcotest.to_alcotest prop_matches_queue_model;
          Alcotest.test_case "ring growth" `Quick test_ring_growth;
          Alcotest.test_case "poll allocation independent of cp" `Quick
            test_poll_alloc_flat;
        ] );
    ]
