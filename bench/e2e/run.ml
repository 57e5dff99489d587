(* The repository benchmark: host cost per committed command on four
   simulated workloads, with per-layer attribution from outside the
   program. See README.md in this directory.

     dune exec bench/e2e/run.exe -- [--workload NAME]... [--seed N]
       [--seconds S] [--layers | --trace 0|1] [--spans FILE] [--json FILE]
       [--smoke [--benchmark FILE]]

   One workload runs in this process; several (the default: all four) run
   one child process each, so that peak heap is per workload. The last
   line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
   if any output check fails. *)

open E2e
module J = Bench_report.Json

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable layers : bool;
  mutable spans : string option;
  mutable json : string option;
  mutable smoke : bool;
  mutable benchmark : string;
}

type workload_report = {
  w : Spec.t;
  sz : Spec.sizing;
  printed : Report.metric list;  (** every metric, for text and --json *)
  reported : Report.metric list;  (** the last line's metrics *)
  checks : (string * (unit, string) result) list;
  attempted : int;
  failed : int;
}

let metric_json (ms : Report.metric list) =
  J.Obj
    (List.map
       (fun (x : Report.metric) ->
         (x.Report.name, J.Obj [ ("value", J.float x.Report.value); ("unit", J.String x.Report.unit) ]))
       ms)

let correct checks = List.for_all (fun (_, r) -> Result.is_ok r) checks

(* [spans] captures the first core's timed run. *)
let run_cores ~timed ?spans (w : Spec.t) sz ~seed =
  List.mapi
    (fun i core ->
      Frames.record_spans (if i = 0 then spans else None);
      Cores.run ~timed core w sz ~seed ~n:w.Spec.n)
    w.Spec.cores

let prefixed (w : Spec.t) (o : Runner.outcome) checks =
  List.map
    (fun (name, r) ->
      ((if List.length w.Spec.cores > 1 then o.Runner.core ^ "." ^ name else name), r))
    checks

let run_one o (w : Spec.t) sz =
  let seed = o.seed in
  let plain = run_cores ~timed:false w sz ~seed in
  let e2e, extra, attempted, failed = Report.end_to_end plain in
  let checks = List.concat_map (fun p -> prefixed w p p.Runner.checks) plain in
  if not o.layers then
    {
      w;
      sz;
      printed = e2e @ extra @ [ Report.m "bench.cpu_frac" (Report.cpu_frac plain) "ratio" ];
      reported = e2e;
      checks;
      attempted;
      failed;
    }
  else begin
    let wrapper_ns = Frames.wrapper_ns_per_call () in
    let timed =
      run_cores ~timed:true ?spans:o.spans w { sz with Spec.replicas = 1 } ~seed
    in
    let get = Report.merge_raw timed in
    let single_node_ns =
      if not w.Spec.single_node then 0.0
      else begin
        let w1 =
          {
            w with
            Spec.n = 1;
            measure_ms = 1000.0 *. Float.max 0.2 (Float.min 1.0 sz.Spec.scale);
          }
        in
        let o1 = Cores.run ~timed:false "omnipaxos" w1 { sz with Spec.replicas = 1 } ~seed ~n:1 in
        Runner.host_ns_per_cmd o1
      end
    in
    (* The timed run is one replica: compare it with the plain run's median
       replica, not with its per-window best. *)
    let sum f outs = float_of_int (List.fold_left (fun a p -> a + f p) 0 outs) in
    let plain_wall = sum (fun p -> p.Runner.replica_wall_ns) plain in
    let timed_wall = sum (fun p -> p.Runner.wall_ns) timed in
    let layer =
      Report.layers get ~single_node_ns
        ~trace_overhead_pct:(100.0 *. ((timed_wall /. plain_wall) -. 1.0))
        ~cpu_frac:(Report.cpu_frac plain) ~wrapper_ns
    in
    let same =
      List.for_all2
        (fun p t -> String.equal (Report.sim_fingerprint p) (Report.sim_fingerprint t))
        plain timed
    in
    let self_total = Report.total_self_ns get in
    let layer_checks =
      [
        ( "layers_sim_equal",
          if same then Ok ()
          else
            Error
              (String.concat " | "
                 (List.map2
                    (fun p t -> Report.sim_fingerprint p ^ " vs " ^ Report.sim_fingerprint t)
                    plain timed)) );
        ( "layers_self_sum",
          let gap = Float.abs (self_total -. timed_wall) /. timed_wall in
          if gap <= 0.02 then Ok ()
          else
            Error
              (Printf.sprintf "self times sum to %.0f ns, measured wall %.0f ns (%.2f%% apart)"
                 self_total timed_wall (100.0 *. gap)) );
      ]
      @ List.concat_map (fun t -> prefixed w t (List.map (fun (n, r) -> ("layers." ^ n, r)) t.Runner.checks)) timed
    in
    {
      w;
      sz;
      printed = e2e @ extra @ layer;
      reported = layer;
      checks = checks @ layer_checks;
      attempted;
      failed;
    }
  end

let print_result r =
  List.iter
    (fun (x : Report.metric) ->
      Printf.printf "%s %s %s %s\n" r.w.Spec.name x.Report.name
        (J.to_compact_string (J.float x.Report.value))
        x.Report.unit)
    r.printed;
  List.iter
    (fun (name, res) ->
      match res with
      | Ok () -> Printf.printf "check %s %s ok\n" r.w.Spec.name name
      | Error msg -> Printf.printf "check %s %s FAIL: %s\n" r.w.Spec.name name msg)
    r.checks

let workload_json r =
  J.Obj
    [
      ("name", J.String r.w.Spec.name);
      ("why", J.String r.w.Spec.why);
      ("params", J.Obj (List.map (fun (k, v) -> (k, J.String v)) (Spec.params r.w r.sz)));
      ("metrics", metric_json r.printed);
      ( "checks",
        J.Obj
          (List.map
             (fun (n, res) ->
               (n, J.String (match res with Ok () -> "ok" | Error m -> m)))
             r.checks) );
      ("correct", J.Bool (correct r.checks));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
    ]

(* The --json envelope: the run's settings and the host facts that move
   host-cost numbers (minor words differ between compiler versions). *)
let envelope o workloads =
  J.Obj
    [
      ("schema", J.String "opx-e2e/1");
      ("seed", J.Int o.seed);
      ("seconds", J.float o.seconds);
      ("layers", J.Bool o.layers);
      ("ocaml_version", J.String Sys.ocaml_version);
      ("word_size", J.Int Sys.word_size);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocamlrunparam", J.String (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
      ("workloads", J.List workloads);
    ]

let write_file file s =
  let oc = open_out file in
  output_string oc s;
  close_out oc

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let last_line_json metrics ~correct ~attempted ~failed =
  print_endline
    (J.to_compact_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", metrics);
          ]))

let single o sz name =
  match Spec.find sz name with
  | None ->
      Printf.eprintf "unknown workload %s (known: %s)\n" name (String.concat ", " Spec.names);
      exit 2
  | Some w ->
      let r = run_one o w sz in
      print_result r;
      Option.iter
        (fun f -> write_file f (J.to_string (envelope o [ workload_json r ])))
        o.json;
      let ok = correct r.checks in
      last_line_json (metric_json r.reported) ~correct:ok ~attempted:r.attempted
        ~failed:r.failed;
      if not ok then exit 1

(* ---- several workloads: one child process each ---- *)

let child_args o name =
  [ "--workload"; name; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%.17g" o.seconds ]
  @ (if o.layers then [ "--layers" ] else [])
  @ (if o.smoke then [ "--smoke-child" ] else [])
  @ (match o.spans with Some f -> [ "--spans"; f ^ "." ^ name ] | None -> [])
  @ match o.json with Some f -> [ "--json"; f ^ "." ^ name ^ ".part" ] | None -> []

let run_child o name =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: child_args o name)) in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (List.rev !lines, status = Unix.WEXITED 0)

(* Which (metric, unit) pairs a child printed as "workload metric value unit". *)
let printed_pairs name lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ w; metric; _; unit ] when String.equal w name -> Some (metric, unit)
      | _ -> None)
    lines

(* --smoke: every metric BENCHMARK.json names is printed with its unit. *)
let declared_metrics file =
  match J.of_string (read_file file) with
  | Error e -> failwith (file ^ ": " ^ e)
  | Ok j ->
      List.concat_map
        (fun key ->
          match J.member key j with
          | Some (J.List l) ->
              List.filter_map
                (fun x ->
                  match (J.member "name" x, J.member "unit" x) with
                  | Some (J.String n), Some (J.String u) -> Some (n, u)
                  | _ -> None)
                l
          | _ -> [])
        [ "end_to_end"; "per_layer" ]

let several o names =
  let declared = if o.smoke then declared_metrics o.benchmark else [] in
  let all_ok = ref true and attempted = ref 0 and failed = ref 0 in
  let metrics = ref [] and parts = ref [] in
  List.iter
    (fun name ->
      let lines, ok = run_child o name in
      let body, last =
        match List.rev lines with l :: rest -> (List.rev rest, l) | [] -> ([], "")
      in
      (* The smoke prints only what failed. *)
      List.iter
        (fun l ->
          if (not o.smoke) || String.starts_with ~prefix:"check" l && not (String.ends_with ~suffix:" ok" l)
          then print_endline l)
        body;
      if not ok then all_ok := false;
      if o.smoke then Printf.printf "smoke %s: %s\n" name (if ok then "ok" else "FAIL");
      (match J.of_string last with
      | Ok j ->
          (match (J.member "attempted" j, J.member "failed" j) with
          | Some (J.Int a), Some (J.Int f) ->
              attempted := !attempted + a;
              failed := !failed + f
          | _ -> all_ok := false);
          (match J.member "metrics" j with
          | Some (J.Obj ms) ->
              metrics := !metrics @ List.map (fun (k, v) -> (name ^ "/" ^ k, v)) ms
          | _ -> all_ok := false)
      | Error _ ->
          Printf.printf "check %s result FAIL: no result line\n" name;
          all_ok := false);
      let pairs = printed_pairs name body in
      List.iter
        (fun (m, u) ->
          if not (List.mem (m, u) pairs) then begin
            Printf.printf "check %s printed FAIL: %s [%s] missing\n" name m u;
            all_ok := false
          end)
        declared;
      Option.iter
        (fun f ->
          let part = f ^ "." ^ name ^ ".part" in
          if Sys.file_exists part then begin
            (match J.of_string (read_file part) with
            | Ok j -> (
                match J.member "workloads" j with
                | Some (J.List l) -> parts := !parts @ l
                | _ -> ())
            | Error _ -> all_ok := false);
            Sys.remove part
          end)
        o.json)
    names;
  Option.iter (fun f -> write_file f (J.to_string (envelope o !parts))) o.json;
  if not o.smoke then
    last_line_json (J.Obj !metrics) ~correct:!all_ok ~attempted:!attempted ~failed:!failed;
  if not !all_ok then exit 1

let () =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = Spec.reference_seconds;
      layers = false;
      spans = None;
      json = None;
      smoke = false;
      benchmark = "BENCHMARK.json";
    }
  in
  let smoke_child = ref false in
  let spec =
    [
      ("--workload", Arg.String (fun w -> o.workloads <- o.workloads @ [ w ]), "NAME  run this workload (repeatable; default: all)");
      ("--seed", Arg.Int (fun s -> o.seed <- s), "N  seed of the cluster and the arrival RNG (default 1)");
      ("--seconds", Arg.Float (fun s -> o.seconds <- s), "S  scale the measured phases by S/5 (default 5)");
      ("--layers", Arg.Unit (fun () -> o.layers <- true), " also run through the timing wrappers and print per-layer metrics");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> o.layers <- false
          | 1 -> o.layers <- true
          | v -> raise (Arg.Bad (Printf.sprintf "--trace %d: expected 0 or 1" v))),
        "0|1  same as omitting / giving --layers" );
      ("--spans", Arg.String (fun f -> o.spans <- Some f), "FILE  write the first 100k spans as Chrome trace-event JSON");
      ("--json", Arg.String (fun f -> o.json <- Some f), "FILE  write the run envelope (settings, host facts, all metrics)");
      ("--smoke", Arg.Unit (fun () -> o.smoke <- true), " every workload at ~1/20 size, with --layers, checking BENCHMARK.json's names");
      ("--smoke-child", Arg.Set smoke_child, " (the child runs of --smoke)");
      ("--benchmark", Arg.String (fun f -> o.benchmark <- f), "FILE  BENCHMARK.json for --smoke");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.exe [options]";
  if o.seconds <= 0.0 then begin
    prerr_endline "--seconds must be positive";
    exit 2
  end;
  if o.smoke then o.layers <- true;
  let sz = if o.smoke || !smoke_child then Spec.smoke else Spec.sizing ~seconds:o.seconds in
  match o.workloads with
  | [ name ] when not o.smoke -> single o sz name
  | [] -> several o Spec.names
  | names -> several o names
