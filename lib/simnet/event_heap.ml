(* A binary min-heap of timed events, tie-broken by insertion sequence so that
   simulations are fully deterministic.

   Struct of arrays: event [i] is ([times.(i)], [seqs.(i)], [payloads.(i)]),
   with the times in a flat [Float.Array]. A push or pop moves floats and
   ints between slots and allocates nothing once the arrays have grown to
   the high-water mark. Payloads are ints; the caller keeps whatever they
   name (a closure slot, a link) in its own tables. *)

type clock = { mutable now : float }

type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
  (* Lifetime accounting for the scale-out work: the high-water mark bounds
     the array footprint, pushes/pops give the total event volume. A few
     integer ops per operation, maintained unconditionally so instrumented
     and uninstrumented runs stay byte-identical. *)
  mutable high_water : int;
  mutable pops : int;
}

type stats = { hs_size : int; hs_high_water : int; hs_pushes : int; hs_pops : int }

let initial_capacity = 16

let create () =
  {
    times = Float.Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    payloads = Array.make initial_capacity 0;
    size = 0;
    next_seq = 0;
    high_water = 0;
    pops = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* [next_seq] counts every insertion ever, so it doubles as the push
   counter. *)
let stats t =
  {
    hs_size = t.size;
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

(* Claim the next free slot for a new event with [payload]; its time is
   stored by the caller, then [sift_up] places it. *)
let claim t payload =
  if t.size = Array.length t.seqs then grow t;
  let i = t.size in
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  if t.size > t.high_water then t.high_water <- t.size;
  i

let push t ~time payload =
  let i = claim t payload in
  Float.Array.set t.times i time;
  sift_up t i

let push_cell t cells k payload =
  let i = claim t payload in
  Float.Array.set t.times i (Float.Array.get cells k);
  sift_up t i

let min_time t = if t.size = 0 then infinity else Float.Array.get t.times 0
let due t deadline = t.size > 0 && Float.Array.get t.times 0 <= deadline

let min_payload t =
  if t.size = 0 then invalid_arg "Event_heap.min_payload: empty";
  t.payloads.(0)

let pop_payload t clock =
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

let clear t = t.size <- 0
