(* Outside-in timing frames for the benchmark's --layers run.

   A frame is opened around a call into a public function of the program
   (a protocol's [handle], the network's [run_for], a trace sink) and closed
   when the call returns. Each frame site accumulates calls, self time and
   self minor words: what the call took minus what the frames opened inside
   it took. The root frame is the bench's call to
   [Simnet.Net.run_for], so its self time is the simulator's own dispatch
   cost and the self times of all sites add up to the time spent inside
   [run_for].

   [enter] and [leave] allocate nothing: the clocks and [Gc.minor_words]
   are unboxed externals and every accumulator is an int array slot. Frames
   count clock ticks (see tsc_stubs.c); readers convert to ns. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]
(* CLOCK_MONOTONIC in nanoseconds, from the bechamel.monotonic_clock stubs. *)

external ticks : unit -> (int[@untagged])
  = "e2e_ticks_bytecode" "e2e_ticks_native"
[@@noalloc]

let[@inline] now_ns () = Int64.to_int (clock_ns ())
let[@inline] words () = int_of_float (Gc.minor_words ())

(* Ticks per ns, measured once against CLOCK_MONOTONIC over 20 ms. *)
let ticks_per_ns =
  lazy
    (let t0 = now_ns () and k0 = ticks () in
     while now_ns () - t0 < 20_000_000 do
       ()
     done;
     float_of_int (ticks () - k0) /. float_of_int (now_ns () - t0))

let to_ns t = float_of_int t /. Lazy.force ticks_per_ns
let max_sites = 128
let max_depth = 64
let names = Array.make max_sites ""
let n_sites = ref 0
let calls = Array.make max_sites 0
let self_ticks = Array.make max_sites 0
let self_words = Array.make max_sites 0

(* Registration happens at module initialisation (functor application), so
   site ids are fixed before any run starts. *)
let site name =
  let rec find i =
    if i = !n_sites then begin
      if i = max_sites then failwith "Frames.site: too many sites";
      names.(i) <- name;
      incr n_sites;
      i
    end
    else if String.equal names.(i) name then i
    else find (i + 1)
  in
  find 0

let st_site = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_w0 = Array.make max_depth 0
let st_child_ticks = Array.make max_depth 0
let st_child_words = Array.make max_depth 0
let st_span = Array.make max_depth (-1)
let depth = ref 0

(* Span capture for --spans: the first [span_cap] frames entered, by entry
   order, as (site, start, end, parent span). *)
let span_cap = 100_000
let spans_file = ref None
let spans_on = ref false
let n_spans = ref 0
let sp_site = ref [||]
let sp_start = ref [||]
let sp_end = ref [||]
let sp_parent = ref [||]

(* Capture into [file] starting at the next [reset], i.e. with the next
   measured phase; [None] disarms. *)
let record_spans file = spans_file := file

let enter site =
  let d = !depth in
  st_site.(d) <- site;
  st_child_ticks.(d) <- 0;
  st_child_words.(d) <- 0;
  (if !spans_on && !n_spans < span_cap then begin
     let id = !n_spans in
     n_spans := id + 1;
     !sp_site.(id) <- site;
     !sp_parent.(id) <- (if d > 0 then st_span.(d - 1) else -1);
     st_span.(d) <- id
   end
   else st_span.(d) <- -1);
  depth := d + 1;
  st_w0.(d) <- words ();
  st_t0.(d) <- ticks ()

let leave () =
  let t1 = ticks () in
  let w1 = words () in
  let d = !depth - 1 in
  depth := d;
  let site = st_site.(d) in
  let dt = t1 - st_t0.(d) in
  let dw = w1 - st_w0.(d) in
  calls.(site) <- calls.(site) + 1;
  self_ticks.(site) <- self_ticks.(site) + dt - st_child_ticks.(d);
  self_words.(site) <- self_words.(site) + dw - st_child_words.(d);
  (let id = st_span.(d) in
   if id >= 0 then begin
     !sp_start.(id) <- st_t0.(d);
     !sp_end.(id) <- t1
   end);
  if d > 0 then begin
    st_child_ticks.(d - 1) <- st_child_ticks.(d - 1) + dt;
    st_child_words.(d - 1) <- st_child_words.(d - 1) + dw
  end

let reset () =
  if !depth <> 0 then failwith "Frames.reset: frames still open";
  Array.fill calls 0 max_sites 0;
  Array.fill self_ticks 0 max_sites 0;
  Array.fill self_words 0 max_sites 0;
  if Option.is_some !spans_file && not !spans_on then begin
    sp_site := Array.make span_cap 0;
    sp_start := Array.make span_cap 0;
    sp_end := Array.make span_cap 0;
    sp_parent := Array.make span_cap (-1);
    n_spans := 0;
    spans_on := true
  end

(* Cost of one enter/leave pair around an empty body. *)
let s_empty = site "bench.empty"

let wrapper_ns_per_call () =
  let n = 1_000_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    enter s_empty;
    leave ()
  done;
  float_of_int (now_ns () - t0) /. float_of_int n

(* Stop capturing and write the spans to the armed file as Chrome
   trace-event JSON ("X" complete events, microsecond timestamps relative
   to the first span), loadable in chrome://tracing or Perfetto. *)
let write_spans () =
  match !spans_file with
  | Some file when !spans_on ->
      spans_on := false;
      let oc = open_out file in
      let base = if !n_spans > 0 then !sp_start.(0) else 0 in
      let us t = to_ns t /. 1000.0 in
      output_string oc "{\"traceEvents\":[\n";
      let first = ref true in
      for i = 0 to !n_spans - 1 do
        (* A span still open when capture stopped has no end stamp. *)
        if !sp_end.(i) > 0 then begin
          if not !first then output_string oc ",\n";
          first := false;
          Printf.fprintf oc
            "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
            names.(!sp_site.(i))
            (us (!sp_start.(i) - base))
            (us (!sp_end.(i) - !sp_start.(i)))
            i !sp_parent.(i)
        end
      done;
      output_string oc "\n]}\n";
      close_out oc
  | Some _ | None -> ()
