(* Compare two sets of run.exe --json outputs, e.g. ten runs of a parent
   commit against ten of a change, from the root of a checkout (bounds and
   directions come from its BENCHMARK.json):

     dune exec bench/e2e/compare.exe -- BASE NEW

   BASE and NEW are directories of --json files. Runs are paired by the
   seed each envelope records; a seed found on one side only is left
   unpaired. For each workload and metric this prints both sides' median
   and quartiles over all their runs, the share of pairs NEW wins (ties
   count for neither) and, for the end-to-end metrics and failed_pct, a
   verdict. "improved" always needs NEW to win at least 9 pairs in 10 and
   its median to be better than BASE's by more than BASE's interquartile
   range.

   The host metrics (host_ns_per_cmd, setup_s, peak_heap_mb) vary from run
   to run and are judged by BENCHMARK.json's bounds:
   - unresolved: the spread of either side is wider than the bound and NEW
     does not read better than BASE on every run;
   - regressed: NEW's median is worse than BASE's by more than the bound;
   - unchanged: otherwise.

   Every other metric is deterministic for a seed and compiler, so any
   difference within a pair is a change of behaviour:
   - regressed: NEW is worse in any pair;
   - unchanged: the two sides are equal in every pair;
   - unresolved: NEW is better in some pairs, equal in the rest, and not
     "improved".

   No metric of a workload is "improved" if NEW fails more commands than
   BASE in any pair of that workload; it reads "unresolved" instead.

   Exits 1 if any verdict is "regressed". *)

module J = Bench_report.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_json file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string s with Ok j -> j | Error e -> die "%s: %s" file e

let number = function
  | J.Float f -> Some f
  | J.Int i -> Some (float_of_int i)
  | J.Null | J.Bool _ | J.String _ | J.List _ | J.Obj _ -> None

type run = {
  seed : int;
  values : ((string * string) * float) list;  (** (workload, metric) -> value *)
  failed : (string * int) list;  (** workload -> commands not committed *)
}

let read_run file =
  let j = read_json file in
  let seed =
    match J.member "seed" j with
    | Some (J.Int s) -> s
    | _ -> die "%s: no seed in the envelope" file
  in
  let ws =
    match J.member "workloads" j with
    | Some (J.List ws) -> ws
    | _ -> die "%s: not a run.exe --json envelope" file
  in
  let name w =
    match J.member "name" w with Some (J.String n) -> n | _ -> die "%s: a workload has no name" file
  in
  let values =
    List.concat_map
      (fun w ->
        match J.member "metrics" w with
        | Some (J.Obj ms) ->
            List.filter_map
              (fun (m, v) ->
                Option.map (fun x -> ((name w, m), x)) (Option.bind (J.member "value" v) number))
              ms
        | _ -> [])
      ws
  in
  let failed =
    List.map
      (fun w ->
        match J.member "failed" w with
        | Some (J.Int f) -> (name w, f)
        | _ -> die "%s: workload %s has no failed count" file (name w))
      ws
  in
  { seed; values; failed }

let runs dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then die "%s: not a directory" dir;
  let files =
    List.sort String.compare
      (List.filter (fun f -> Filename.check_suffix f ".json") (Array.to_list (Sys.readdir dir)))
  in
  if files = [] then die "%s: no .json files" dir;
  let rs = List.map (fun f -> read_run (Filename.concat dir f)) files in
  List.iter
    (fun r ->
      if List.length (List.filter (fun r' -> r'.seed = r.seed) rs) > 1 then
        die "%s: seed %d appears more than once" dir r.seed)
    rs;
  rs

(* Quartiles as Python's statistics.quantiles(values, n=4), and the
   median. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let at i =
    if n = 1 then a.(0)
    else
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  let med = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0 in
  (at 1, med, at 3)

let host_metrics = [ "host_ns_per_cmd"; "setup_s"; "peak_heap_mb" ]

type direction = { higher_better : bool; bound : float }

(* The end-to-end metrics of BENCHMARK.json, plus failed_pct: it reads 0
   on every workload, so BENCHMARK.json cannot list it, but it must not
   get worse. Only the host metrics use [bound]. *)
let directions () =
  let file = "BENCHMARK.json" in
  match J.member "end_to_end" (read_json file) with
  | Some (J.List l) ->
      ("failed_pct", { higher_better = false; bound = 0.0 })
      :: List.filter_map
           (fun m ->
             match (J.member "name" m, J.member "better" m, Option.bind (J.member "bound" m) number) with
             | Some (J.String n), Some (J.String b), Some x ->
                 Some (n, { higher_better = String.equal b "higher"; bound = x })
             | _ -> None)
           l
  | _ -> die "%s: no end_to_end list" file

(* [pairs] holds (base, new) values of one metric on the same seed. *)
let verdict d ~metric ~base ~new_ ~pairs ~more_failures =
  let q1b, mb, q3b = quartiles base and q1n, mn, q3n = quartiles new_ in
  let sign = if d.higher_better then 1.0 else -1.0 in
  let better x y = sign *. (x -. y) > 0.0 in
  let wins = List.length (List.filter (fun (b, n) -> better n b) pairs) in
  let win_share = float_of_int wins /. float_of_int (List.length pairs) in
  let gain = win_share >= 0.9 && sign *. (mn -. mb) > q3b -. q1b in
  let v =
    if List.mem metric host_metrics then begin
      let spread = Float.max (q3b -. q1b) (q3n -. q1n) /. Float.abs mb in
      let all_better =
        List.for_all (fun n -> List.for_all (fun b -> better n b) base) new_
      in
      if gain then if more_failures then "unresolved" else "improved"
      else if spread > d.bound && not all_better then "unresolved"
      else if sign *. (mb -. mn) /. Float.abs mb > d.bound then "regressed"
      else "unchanged"
    end
    else if List.exists (fun (b, n) -> better b n) pairs then "regressed"
    else if wins = 0 then "unchanged"
    else if gain && not more_failures then "improved"
    else "unresolved"
  in
  (win_share, v)

let () =
  let dirs = ref [] in
  Arg.parse [] (fun d -> dirs := !dirs @ [ d ]) "compare.exe BASE_DIR NEW_DIR";
  let base_dir, new_dir =
    match !dirs with [ a; b ] -> (a, b) | _ -> die "expected two directories: BASE NEW"
  in
  let directions = directions () in
  let base = runs base_dir and new_ = runs new_dir in
  let paired =
    List.filter_map
      (fun b -> Option.map (fun n -> (b, n)) (List.find_opt (fun n -> n.seed = b.seed) new_))
      base
  in
  if paired = [] then die "no seed appears in both %s and %s" base_dir new_dir;
  let keys =
    List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.values) (base @ new_))
  in
  let regressed = ref false in
  Printf.printf "%d pairs by seed\n" (List.length paired);
  Printf.printf "%-15s %-40s %12s %12s %12s | %12s %12s %12s | %5s  %s\n" "workload" "metric"
    "base_q1" "base_med" "base_q3" "new_q1" "new_med" "new_q3" "wins" "verdict";
  List.iter
    (fun ((w, m) as key) ->
      let side rs = List.filter_map (fun r -> List.assoc_opt key r.values) rs in
      let b = side base and n = side new_ in
      if b <> [] && n <> [] then begin
        let q1b, mb, q3b = quartiles b and q1n, mn, q3n = quartiles n in
        let wins, v =
          match List.assoc_opt m directions with
          | None -> (nan, "-")
          | Some d ->
              let pairs =
                List.filter_map
                  (fun (rb, rn) ->
                    match (List.assoc_opt key rb.values, List.assoc_opt key rn.values) with
                    | Some x, Some y -> Some (x, y)
                    | _ -> None)
                  paired
              in
              let more_failures =
                List.exists
                  (fun (rb, rn) ->
                    match (List.assoc_opt w rb.failed, List.assoc_opt w rn.failed) with
                    | Some fb, Some fn -> fn > fb
                    | _ -> false)
                  paired
              in
              if pairs = [] then (nan, "-")
              else verdict d ~metric:m ~base:b ~new_:n ~pairs ~more_failures
        in
        if String.equal v "regressed" then regressed := true;
        Printf.printf "%-15s %-40s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g | %5s  %s\n" w m q1b
          mb q3b q1n mn q3n
          (if Float.is_nan wins then "-" else Printf.sprintf "%.2f" wins)
          v
      end)
    keys;
  if !regressed then exit 1
