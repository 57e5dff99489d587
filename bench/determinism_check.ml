(* Bench determinism check: runs each requested section twice in-process
   (same seeds, fresh simulator state) and compares the rendered JSON
   reports byte-for-byte — the same double-run pattern the chaos harness
   uses for replay determinism. A mismatch means some wall-clock,
   global-state or iteration-order nondeterminism leaked into the report
   pipeline, which would make the CI regression gate flaky.

   Wall-clock rates (fields ending in _per_s_ci, such as the mcheck
   section's states/s) differ between any two runs, so they are blanked
   before the comparison; every other field must match byte for byte.

   Usage: determinism_check.exe [section ...]   (default: table1 fig8a)
   Honors BENCH_QUICK like main.exe. Exit 1 on mismatch, 2 on bad usage. *)

module J = Bench_report.Json

let quick = Sys.getenv_opt "BENCH_QUICK" = Some "1"

let sections =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as rest) -> rest
  | _ -> [ "table1"; "fig8a" ]

let rec blank_rates = function
  | J.Obj fields ->
      J.Obj
        (List.map
           (fun (k, v) ->
             if String.ends_with ~suffix:"_per_s_ci" k then (k, J.Null)
             else (k, blank_rates v))
           fields)
  | J.List l -> J.List (List.map blank_rates l)
  | (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _) as v -> v

let () =
  let unknown =
    List.filter (fun s -> not (List.mem s Sections.all_names)) sections
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown section(s): %s\n" (String.concat " " unknown);
    exit 2
  end;
  let failed = ref false in
  List.iter
    (fun name ->
      let render () =
        match Sections.run name ~quick ~print:false with
        | Some report -> J.to_string (blank_rates report)
        | None -> assert false
      in
      let first = render () in
      let second = render () in
      if String.equal first second then
        Printf.printf "[%s] deterministic (%d bytes)\n" name
          (String.length first)
      else begin
        failed := true;
        Printf.printf "[%s] MISMATCH between two runs:\n--- run 1\n%s\n--- \
                       run 2\n%s\n" name first second
      end)
    sections;
  if !failed then exit 1 else Printf.printf "All sections deterministic.\n"
