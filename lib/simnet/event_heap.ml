(* The simulator's event queue: a binary min-heap of timed events,
   tie-broken by insertion sequence so that simulations are fully
   deterministic, beside a FIFO lane for events pushed in order.

   Struct of arrays: heap event [i] is ([times.(i)], [seqs.(i)],
   [payloads.(i)]), with the times in a flat [Float.Array]; lane events sit
   the same way in a ring. A push or pop moves floats and ints between
   slots and allocates nothing once the arrays have grown to the
   high-water mark. Payloads are ints; the caller keeps whatever they name
   (a closure slot, a link) in its own tables.

   The lane holds events in (time, seq) order: {!push_lane_cell} puts an
   event there only when it is not before the lane's last one (its seq is
   the newest), so the lane's head is its smallest event, and a pop takes
   the smaller of the two heads. Its capacity is fixed at [create]; when
   it is full the event goes to the heap, whose arrays grow whenever the
   events of both parts fill them, so the heap never overflows and grows
   at the pushes where a heap alone would. *)

type clock = { mutable now : float }

type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;  (* events in the heap *)
  mutable next_seq : int;
  (* Lifetime accounting for the scale-out work, over both parts: the
     high-water mark bounds the array footprint, pushes/pops give the total
     event volume. A few integer ops per operation, maintained
     unconditionally so instrumented and uninstrumented runs stay
     byte-identical. *)
  mutable high_water : int;
  mutable pops : int;
  (* The lane: a ring whose capacity is a power of two (or 0). *)
  lane_times : Float.Array.t;
  lane_seqs : int array;
  lane_payloads : int array;
  mutable lane_head : int;  (* slot of the lane's first event *)
  mutable lane_size : int;
  mutable lane_pops : int;
}

type stats = { hs_size : int; hs_high_water : int; hs_pushes : int; hs_pops : int }

let initial_capacity = 16

let rec power_of_two c n = if c >= n then c else power_of_two (2 * c) n

let create ?(lane = 0) () =
  let lane = if lane <= 0 then 0 else power_of_two 1 lane in
  {
    times = Float.Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    payloads = Array.make initial_capacity 0;
    size = 0;
    next_seq = 0;
    high_water = 0;
    pops = 0;
    lane_times = Float.Array.make lane 0.0;
    lane_seqs = Array.make lane 0;
    lane_payloads = Array.make lane 0;
    lane_head = 0;
    lane_size = 0;
    lane_pops = 0;
  }

let length t = t.size + t.lane_size
let is_empty t = length t = 0

(* [next_seq] counts every insertion ever, so it doubles as the push
   counter. *)
let stats t =
  {
    hs_size = length t;
    hs_high_water = t.high_water;
    hs_pushes = t.next_seq;
    hs_pops = t.pops;
  }

let grow t =
  let cap = 2 * Array.length t.seqs in
  let times = Float.Array.make cap 0.0 in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make cap 0 and payloads = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* Move the event in slot [i] up to its place. A hole travels up instead of
   swapping, and the event's time is read here rather than passed in: a
   float argument to a function that is not inlined would be boxed. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let time = Float.Array.get times i in
  let seq = seqs.(i) and payload = payloads.(i) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Float.Array.get times parent in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      Float.Array.set times !i pt;
      seqs.(!i) <- seqs.(parent);
      payloads.(!i) <- payloads.(parent);
      i := parent
    end
    else moving := false
  done;
  Float.Array.set times !i time;
  seqs.(!i) <- seq;
  payloads.(!i) <- payload

(* Move the event in slot 0 down to its place. *)
let sift_down t =
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let n = t.size in
  let time = Float.Array.get times 0 in
  let seq = seqs.(0) and payload = payloads.(0) in
  let i = ref 0 and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      (* The earlier of the two children. *)
      let c =
        if r < n then begin
          let lt = Float.Array.get times l and rt = Float.Array.get times r in
          if rt < lt || (rt = lt && seqs.(r) < seqs.(l)) then r else l
        end
        else l
      in
      let ct = Float.Array.get times c in
      if ct < time || (ct = time && seqs.(c) < seq) then begin
        Float.Array.set times !i ct;
        seqs.(!i) <- seqs.(c);
        payloads.(!i) <- payloads.(c);
        i := c
      end
      else moving := false
    end
  done;
  Float.Array.set times !i time;
  seqs.(!i) <- seq;
  payloads.(!i) <- payload

(* Count a new event, growing the heap's arrays when the events of both
   parts fill them, and return its sequence number. *)
let count_push t =
  let total = length t in
  if total = Array.length t.seqs then grow t;
  if total >= t.high_water then t.high_water <- total + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Claim the next free heap slot for a new event with [payload]; its time
   is stored by the caller, then [sift_up] places it. *)
let claim t payload =
  let seq = count_push t in
  let i = t.size in
  t.seqs.(i) <- seq;
  t.payloads.(i) <- payload;
  t.size <- i + 1;
  i

let push t ~time payload =
  let i = claim t payload in
  Float.Array.set t.times i time;
  sift_up t i

let push_cell t cells k payload =
  let i = claim t payload in
  Float.Array.set t.times i (Float.Array.get cells k);
  sift_up t i

let push_lane_cell t cells k payload =
  let n = t.lane_size and mask = Array.length t.lane_seqs - 1 in
  if
    n <= mask
    && (n = 0
       || Float.Array.get cells k
          >= Float.Array.get t.lane_times ((t.lane_head + n - 1) land mask))
  then begin
    let seq = count_push t in
    let slot = (t.lane_head + n) land mask in
    Float.Array.set t.lane_times slot (Float.Array.get cells k);
    t.lane_seqs.(slot) <- seq;
    t.lane_payloads.(slot) <- payload;
    t.lane_size <- n + 1
  end
  else push_cell t cells k payload

(* Whether the next event is the lane's head: the smaller of the two heads
   by (time, seq). *)
let lane_first t =
  t.lane_size > 0
  && (t.size = 0
     ||
     let lt = Float.Array.get t.lane_times t.lane_head
     and ht = Float.Array.get t.times 0 in
     lt < ht || (lt = ht && t.lane_seqs.(t.lane_head) < t.seqs.(0)))

let min_time t =
  if lane_first t then Float.Array.get t.lane_times t.lane_head
  else if t.size = 0 then infinity
  else Float.Array.get t.times 0

let due t deadline =
  (t.lane_size > 0 && Float.Array.get t.lane_times t.lane_head <= deadline)
  || (t.size > 0 && Float.Array.get t.times 0 <= deadline)

let min_payload t =
  if lane_first t then t.lane_payloads.(t.lane_head)
  else begin
    if t.size = 0 then invalid_arg "Event_heap.min_payload: empty";
    t.payloads.(0)
  end

let pop_lane t clock =
  let h = t.lane_head in
  clock.now <- Float.max clock.now (Float.Array.get t.lane_times h);
  t.lane_head <- (h + 1) land (Array.length t.lane_seqs - 1);
  t.lane_size <- t.lane_size - 1;
  t.lane_pops <- t.lane_pops + 1;
  t.pops <- t.pops + 1;
  t.lane_payloads.(h)

let pop_heap t clock =
  if t.size = 0 then invalid_arg "Event_heap.pop_payload: empty";
  clock.now <- Float.max clock.now (Float.Array.get t.times 0);
  let payload = t.payloads.(0) in
  let last = t.size - 1 in
  t.size <- last;
  t.pops <- t.pops + 1;
  if last > 0 then begin
    Float.Array.set t.times 0 (Float.Array.get t.times last);
    t.seqs.(0) <- t.seqs.(last);
    t.payloads.(0) <- t.payloads.(last);
    sift_down t
  end;
  payload

let pop_payload t clock =
  if lane_first t then pop_lane t clock else pop_heap t clock

let lane_pops t = t.lane_pops
