(* Adaptive per-kind trace sampling, applied at emit time.

   Deterministic and RNG-free: each sampleable kind keeps its first [head]
   occurrences, then 1 in [rate] by occurrence counter — except message
   send/deliver pairs, which are decided by [send_id mod rate] so a kept
   send always keeps its matching deliver (the causal DAG stays pairable
   under sampling).

   Fault, election, reconfiguration and invariant-input events are never
   sampled: they are low-volume and the analyzer's correctness checks
   (single-leader-per-ballot, decided-prefix-monotonic), stall windows,
   leader timelines and health detectors depend on seeing all of them. The
   sampleable set is the data path, which dominates million-event runs:
   proposed, accepted, batch_flush, send, deliver. *)

type policy = { head : int; rate : int }

(* The emit-path state is countdown-based so [keep_tag] does no division for
   counter-sampled kinds (the per-event cost sits inside every traced hot
   path): [head_left] is the remaining always-keep budget and [until_next]
   the events to drop before the next kept one. *)
type t = {
  policies : policy option array;  (* indexed by Event.kind_tag *)
  head_left : int array;
  until_next : int array;
}

let sampleable_tags =
  (* proposed, accepted, batch_flush, send, deliver *)
  [ 8; 6; 9; 18; 19 ]

let init policies =
  let head_left = Array.make Event.num_kinds 0 in
  Array.iteri
    (fun tag p ->
      match p with Some { head; _ } -> head_left.(tag) <- head | None -> ())
    policies;
  { policies; head_left; until_next = Array.make Event.num_kinds 0 }

let create ?(head = 1_000) ~rate () =
  if rate < 1 then invalid_arg "Sampling.create: rate must be >= 1";
  let policies = Array.make Event.num_kinds None in
  List.iter
    (fun tag -> policies.(tag) <- Some { head; rate })
    sampleable_tags;
  init policies

let send_tag =
  Event.kind_tag (Event.Msg_send { dst = 0; size = 0; send_id = 0; lc = 0 })

let deliver_tag =
  Event.kind_tag (Event.Msg_deliver { src = 0; size = 0; send_id = 0; lc = 0 })

(* Pairs are decided by send_id alone, so a kept send always keeps its
   matching deliver. Stateless, so a site can ask before it builds the
   event. *)
let keep_message t ~deliver send_id =
  match t.policies.(if deliver then deliver_tag else send_tag) with
  | None -> true
  | Some { head; rate } -> send_id < head || send_id mod rate = 0

let keep_tag t tag =
  match t.policies.(tag) with
  | None -> true
  | Some { rate; _ } ->
      (* Keep the first [head], then 1 in [rate], by countdown — the same
         kept set as an occurrence counter with a mod, without the
         per-event division. *)
      if t.head_left.(tag) > 0 then begin
        t.head_left.(tag) <- t.head_left.(tag) - 1;
        true
      end
      else if t.until_next.(tag) = 0 then begin
        t.until_next.(tag) <- rate - 1;
        true
      end
      else begin
        t.until_next.(tag) <- t.until_next.(tag) - 1;
        false
      end

let rates t =
  let acc = ref [] in
  for tag = Event.num_kinds - 1 downto 0 do
    match t.policies.(tag) with
    | Some { rate; _ } when rate > 1 ->
        acc := (Event.tag_name tag, rate) :: !acc
    | Some _ | None -> ()
  done;
  !acc

let meta_prefix = "sample."

let to_meta t =
  List.map (fun (k, r) -> (meta_prefix ^ k, string_of_int r)) (rates t)

let rates_of_meta meta =
  List.filter_map
    (fun (k, v) ->
      let p = meta_prefix in
      let pl = String.length p in
      if String.length k > pl && String.equal (String.sub k 0 pl) p then
        match int_of_string_opt v with
        | Some r when r > 1 ->
            Some (String.sub k pl (String.length k - pl), r)
        | Some _ | None -> None
      else None)
    meta
