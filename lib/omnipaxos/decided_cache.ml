(* The decided command ids in decided order, noted by
   [Compaction.Store.apply] so queries are O(delta). Stored as runs of
   consecutive ids, two ints per run in [runs]: run [r] holds the ids
   [runs.(2r)], [runs.(2r) + 1], ... at the decided positions from
   [runs.(2r + 1)] up to the next run's first position (or [count]).
   Clients number their commands consecutively, so a cache of a million
   ids is a handful of runs; with no two ids consecutive it costs two ints
   per id. *)

type t = { mutable runs : int array; mutable n_runs : int; mutable count : int }

let create () = { runs = Array.make 16 0; n_runs = 0; count = 0 }
let copy t = { t with runs = Array.copy t.runs }

(* The ids [first, first + count) extend the last run when [first] is the
   id after its last, and open a run otherwise. *)
let note_run t ~first ~count =
  if count > 0 then begin
    let last = 2 * (t.n_runs - 1) in
    if t.n_runs = 0 || first <> t.runs.(last) + (t.count - t.runs.(last + 1))
    then begin
      let r = 2 * t.n_runs in
      if r = Array.length t.runs then begin
        let bigger = Array.make (2 * r) 0 in
        Array.blit t.runs 0 bigger 0 r;
        t.runs <- bigger
      end;
      t.runs.(r) <- first;
      t.runs.(r + 1) <- t.count;
      t.n_runs <- t.n_runs + 1
    end;
    t.count <- t.count + count
  end

let note t id = note_run t ~first:id ~count:1

let count t = t.count

(* Walk down from the last position: every run holds at least one
   position, so the walk visits O(count - from) runs. *)
let ids_from t ~from =
  let from = min t.count (max 0 from) in
  let rec collect r pos acc =
    if pos < from then acc
    else
      let first = t.runs.((2 * r) + 1) in
      if pos < first then collect (r - 1) pos acc
      else collect r (pos - 1) ((t.runs.(2 * r) + pos - first) :: acc)
  in
  collect (t.n_runs - 1) (t.count - 1) []
