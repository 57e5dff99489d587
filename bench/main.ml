(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) on the simulated network. Each section also writes a
   machine-readable BENCH_<section>.json report (see lib/bench_report and
   EXPERIMENTS.md); bench/compare.exe gates those against a checked-in
   baseline.

   Usage: main.exe [section ...]
   Sections: table1 fig7 fig8a fig8b fig8c fig9a fig9b fig9c ablations
   policy recovery profile compaction trace_scale simnet_scale mcheck.
   With no arguments, all sections run; an unknown section name is an
   error (exit 2). Set BENCH_QUICK=1 for a reduced (faster,
   fewer seeds / shorter runs) configuration, and BENCH_OUT=<dir> to put
   the JSON reports somewhere other than the working directory. *)

let quick = Sys.getenv_opt "BENCH_QUICK" = Some "1"
let out_dir = Option.value (Sys.getenv_opt "BENCH_OUT") ~default:"."

let sections =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as rest) -> rest
  | _ -> Sections.all_names

let () =
  let unknown =
    List.filter (fun s -> not (List.mem s Sections.all_names)) sections
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown section(s): %s\nknown sections: %s\n"
      (String.concat " " unknown)
      (String.concat " " Sections.all_names);
    exit 2
  end;
  Printf.printf "Omni-Paxos reproduction benchmarks%s\n"
    (if quick then " (BENCH_QUICK)" else "");
  List.iter
    (fun name ->
      match Sections.run name ~quick ~print:true with
      | Some report ->
          let path =
            Bench_report.Report.write_envelope ~dir:out_dir ~section:name
              report
          in
          Printf.printf "[json] wrote %s\n" path
      | None -> ())
    sections;
  Printf.printf "\nAll selected benchmark sections completed.\n"
