type 'a slice = { data : 'a array; pos : int; len : int }

(* The entries [offset, length) are stored in two parts, in order.

   The own part, [offset, offset + size), sits at [data.(0)] on; it is the
   only storage the log ever writes. [lent] is one past the highest slot
   of [data] handed out in a slice: a write below it first moves the
   entries to a fresh array, so a slice never sees a later write.

   Then the kept segments, oldest first: slices appended as they are.
   Segment [k] is [segs.(k)], whose entry [segs.(k).pos] has the absolute
   index [bases.(k)]; it holds the entries from where the part before it
   ends up to [stops.(k)]. A kept segment is never empty, and may hold
   fewer entries than its slice (an [append_slice ~skip], or a [truncate]
   inside it). Slots [n_segs] on of [segs] hold [empty_slice],
   so that a dropped segment pins nothing. *)
type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  mutable offset : int;
  mutable lent : int;
  mutable segs : 'a slice array;
  mutable bases : int array;
  mutable stops : int array;
  mutable n_segs : int;
}

let empty_slice = { data = [||]; pos = 0; len = 0 }

let create () =
  {
    data = [||];
    size = 0;
    offset = 0;
    lent = 0;
    segs = [||];
    bases = [||];
    stops = [||];
    n_segs = 0;
  }

let own_end t = t.offset + t.size
let length t = if t.n_segs = 0 then own_end t else t.stops.(t.n_segs - 1)
let first_idx t = t.offset
let is_empty t = length t = 0
let seg_start t k = if k = 0 then own_end t else t.stops.(k - 1)

(* The first segment in [lo, hi] that ends above [i], given that [hi]
   does. *)
let rec bisect t i lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if t.stops.(mid) > i then bisect t i lo mid else bisect t i (mid + 1) hi

(* Segment [hi] ends above [i]: step back by doubling strides until one
   does not, then bisect the last stride. *)
let rec gallop t i hi stride =
  let lo = hi - stride in
  if lo < 0 then bisect t i 0 hi
  else if t.stops.(lo) > i then gallop t i lo (2 * stride)
  else bisect t i (lo + 1) hi

(* The segment holding entry [i], for [own_end t <= i < length t]: a
   search from the tail, O(1) for the newest segment and O(log d) for the
   [d]th newest. *)
let find t i = gallop t i (t.n_segs - 1) 1

let seg_get t k i =
  let s = t.segs.(k) in
  s.data.(s.pos + i - t.bases.(k))

(* The part holding entry [i]: [-1] for the own part, else a segment. *)
let part t i = if i < own_end t then -1 else find t i

let check_index name t i =
  if i < t.offset || i >= length t then
    invalid_arg
      (Printf.sprintf "Log.%s: index %d, range [%d, %d)" name i t.offset
         (length t))

let get t i =
  check_index "get" t i;
  if i < own_end t then t.data.(i - t.offset) else seg_get t (find t i) i

let last t =
  if t.n_segs > 0 then Some (seg_get t (t.n_segs - 1) (length t - 1))
  else if t.size = 0 then None
  else Some t.data.(t.size - 1)

(* Drop the segments from [k] on, clearing their slots. *)
let drop_segs t k =
  Array.fill t.segs k (t.n_segs - k) empty_slice;
  t.n_segs <- k

(* A follower keeps a few hundred segments between trims. Starting at 512
   slots, the segment table's arrays are allocated once, straight in the
   major heap (they exceed the minor heap's largest block, 256 words),
   rather than through six doublings of small arrays, each of them
   collected. *)
let initial_segs = 512

let keep_seg t s ~base ~stop =
  let k = t.n_segs in
  if k = Array.length t.segs then begin
    let cap = max initial_segs (2 * k) in
    let segs = Array.make cap empty_slice in
    let bases = Array.make cap 0 and stops = Array.make cap 0 in
    Array.blit t.segs 0 segs 0 k;
    Array.blit t.bases 0 bases 0 k;
    Array.blit t.stops 0 stops 0 k;
    t.segs <- segs;
    t.bases <- bases;
    t.stops <- stops
  end;
  t.segs.(k) <- s;
  t.bases.(k) <- base;
  t.stops.(k) <- stop;
  t.n_segs <- k + 1

(* Copy the entries [from, length t), for [first_idx t <= from], to [dst]
   from slot 0. *)
let blit_from t from dst =
  if from < own_end t then
    Array.blit t.data (from - t.offset) dst 0 (own_end t - from);
  for k = 0 to t.n_segs - 1 do
    let start = max from (seg_start t k) and s = t.segs.(k) in
    if start < t.stops.(k) then
      Array.blit s.data
        (s.pos + start - t.bases.(k))
        dst (start - from)
        (t.stops.(k) - start)
  done

(* Make the entries from [from] on the own part, in a fresh array of [cap]
   slots, and drop every segment. *)
let own_from t from cap =
  let n = length t - from in
  let data = if n = 0 then [||] else Array.make cap (get t from) in
  blit_from t from data;
  t.data <- data;
  t.size <- n;
  t.lent <- 0;
  drop_segs t 0

(* Move every entry into one own array with room for [extra] more: run by
   the writes that need one array. *)
let flatten t extra =
  if t.n_segs > 0 then own_from t t.offset (max 16 (length t - t.offset + extra))

(* Make room in the own array for [extra] entries at [size] that no slice
   can see, moving the entries to a fresh array when [data] is full or a
   slice was handed slots at or above [size] (a [truncate] or [set_suffix]
   cut below them). [fill] pads the fresh array. Requires no segment. *)
let reserve t extra fill =
  let needed = t.size + extra in
  let cap = Array.length t.data in
  if needed > cap || t.size < t.lent then begin
    let new_cap =
      if needed > cap then max needed (max 16 (cap * 2)) else cap
    in
    let data = Array.make new_cap fill in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data;
    t.lent <- 0
  end

let append t x =
  flatten t 1;
  reserve t 1 x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let append_list t xs = List.iter (append t) xs

let of_list xs =
  let t = create () in
  append_list t xs;
  t

let copy t =
  {
    data = Array.copy t.data;
    size = t.size;
    offset = t.offset;
    lent = 0;
    segs = Array.copy t.segs;
    bases = Array.copy t.bases;
    stops = Array.copy t.stops;
    n_segs = t.n_segs;
  }

(* The absolute range [pos, stop) that [sub] and [slice] read for
   [pos, pos + len), clamped to the log's length. *)
let range name t ~pos ~len =
  if pos < 0 || len < 0 then
    invalid_arg ("Log." ^ name ^ ": negative argument");
  if len > 0 && pos < t.offset then
    invalid_arg
      (Printf.sprintf "Log.%s: position %d below the trim point %d" name pos
         t.offset);
  let n = length t in
  let pos = min pos n in
  (pos, pos + min len (n - pos))

(* Cons the entries [pos, i] onto [acc], from [i] down; [k] is the part
   holding [i]. *)
let rec cons_down t pos k i acc =
  if i < pos then acc
  else if k < 0 then cons_down t pos k (i - 1) (t.data.(i - t.offset) :: acc)
  else if i < seg_start t k then cons_down t pos (k - 1) i acc
  else cons_down t pos k (i - 1) (seg_get t k i :: acc)

let sub t ~pos ~len =
  let pos, stop = range "sub" t ~pos ~len in
  if stop <= pos then [] else cons_down t pos (part t (stop - 1)) (stop - 1) []

let suffix t ~from = sub t ~pos:(max from t.offset) ~len:(max 0 (length t - from))

let own_slice t pos stop =
  t.lent <- max t.lent (stop - t.offset);
  { data = t.data; pos = pos - t.offset; len = stop - pos }

(* A range inside one segment shares the segment's slice (the slice
   itself when the range is all of it); a range across parts first
   flattens the log. *)
let slice t ~pos ~len =
  let pos, stop = range "slice" t ~pos ~len in
  if stop <= pos then empty_slice
  else if stop <= own_end t then own_slice t pos stop
  else begin
    let k = part t pos in
    if k >= 0 && stop <= t.stops.(k) then begin
      let s = t.segs.(k) in
      let p = s.pos + pos - t.bases.(k) in
      if p = s.pos && stop - pos = s.len then s
      else { s with pos = p; len = stop - pos }
    end
    else begin
      flatten t 0;
      own_slice t pos stop
    end
  end

let slice_length (s : _ slice) = s.len

let slice_get (s : _ slice) i =
  if i < 0 || i >= s.len then
    invalid_arg (Printf.sprintf "Log.slice_get: index %d, length %d" i s.len);
  s.data.(s.pos + i)

let slice_of_list = function
  | [] -> empty_slice
  | xs ->
      let data = Array.of_list xs in
      { data; pos = 0; len = Array.length data }

let slice_to_list (s : _ slice) = Array.to_list (Array.sub s.data s.pos s.len)

let append_slice t (s : _ slice) ~skip =
  let skip = max 0 skip in
  if s.len > skip then begin
    let n = length t in
    keep_seg t s ~base:(n - skip) ~stop:(n + s.len - skip)
  end

(* Keep the entries below [n], for [first_idx t <= n < length t]. *)
let cut t n =
  if n <= own_end t then begin
    drop_segs t 0;
    t.size <- n - t.offset
  end
  else begin
    let k = find t (n - 1) in
    t.stops.(k) <- n;
    drop_segs t (k + 1)
  end

let truncate t n =
  if n < 0 then invalid_arg "Log.truncate: negative length";
  if n < t.offset then
    invalid_arg
      (Printf.sprintf "Log.truncate: %d below the trim point %d" n t.offset);
  if n < length t then cut t n

let set_suffix t ~at s ~skip =
  if at < t.offset || at > length t then
    invalid_arg
      (Printf.sprintf "Log.set_suffix: at %d, range [%d, %d]" at t.offset
         (length t));
  if at < length t then cut t at;
  append_slice t s ~skip

(* Discard the prefix below [upto] (absolute index). The log's indexing
   stays absolute; reads below the trim point raise.

   Inside the own part: when no slice can see the array, the live tail
   moves to its front and the vacated slots are cleared (to the first live
   entry, so no trimmed entry stays reachable): the capacity survives the
   trim, and a log trimmed every compaction interval does not grow again
   from an exact-size array. A slice may see the array ([lent > 0], e.g. a
   leader's in-flight Accepts): the tail then moves to a fresh array of
   the same capacity, so a leader's log does not regrow through doublings
   either (followers' segments would keep each outgrown array alive until
   their own next trim). When nothing remains the array goes.

   Past the own part: the entries from [upto] on become the own part and
   every segment goes. They move into the own array when no slice can see
   it and they fit (its old entries are all below [upto]; the slots they
   vacate are cleared), else into a fresh exact-size array, so a
   follower's own array grows to the most entries a trim has left and is
   then reused. A segment kept across the trim would pin its sender's
   whole array, and with it every entry the sender held when it sent the
   slice: at n=5 those stale entries outweigh the per-entry arrays the
   segments saved. *)
let trim t ~upto =
  if upto > length t then
    invalid_arg
      (Printf.sprintf "Log.trim: upto %d beyond length %d" upto (length t));
  if upto > t.offset then begin
    if upto <= own_end t then begin
      let drop = upto - t.offset in
      let remaining = t.size - drop in
      if t.lent = 0 && remaining > 0 then begin
        Array.blit t.data drop t.data 0 remaining;
        Array.fill t.data remaining drop t.data.(0)
      end
      else begin
        t.data <-
          (if remaining = 0 then [||]
           else begin
             let data = Array.make (Array.length t.data) t.data.(drop) in
             Array.blit t.data drop data 0 remaining;
             data
           end);
        t.lent <- 0
      end;
      t.size <- remaining
    end
    else begin
      let n = length t - upto and old = t.size in
      if t.lent = 0 && 0 < n && n <= Array.length t.data then begin
        blit_from t upto t.data;
        if old > n then Array.fill t.data n (old - n) t.data.(0);
        t.size <- n;
        drop_segs t 0
      end
      else own_from t upto n
    end;
    t.offset <- upto
  end

(* Install a snapshot boundary: discard everything and restart the log at
   absolute index [offset] (the receiver's state below it comes from a state
   snapshot, not from entries). The segment arrays keep their capacity. *)
let reset_to t ~offset =
  if offset < 0 then invalid_arg "Log.reset_to: negative offset";
  t.data <- [||];
  t.size <- 0;
  t.offset <- offset;
  t.lent <- 0;
  drop_segs t 0

let to_list t = sub t ~pos:t.offset ~len:(length t - t.offset)

(* Apply [f] to the entries [i, stop) in order; [k] is the part holding
   [i]. *)
let rec iter_up t f k i stop =
  if i < stop then
    if k < 0 && i < own_end t then begin
      f i t.data.(i - t.offset);
      iter_up t f k (i + 1) stop
    end
    else if k < 0 || i >= t.stops.(k) then iter_up t f (k + 1) i stop
    else begin
      f i (seg_get t k i);
      iter_up t f k (i + 1) stop
    end

let iteri_from t ~from f =
  let i = max t.offset from and stop = length t in
  if i < stop then iter_up t f (part t i) i stop

let fold t ~init ~f =
  let acc = ref init in
  iteri_from t ~from:t.offset (fun _ x -> acc := f !acc x);
  !acc

let chunk t i =
  check_index "chunk" t i;
  if i < own_end t then t.data else t.segs.(find t i).data

let chunk_pos t i =
  check_index "chunk_pos" t i;
  if i < own_end t then i - t.offset
  else
    let k = find t i in
    t.segs.(k).pos + i - t.bases.(k)

let chunk_stop t i =
  check_index "chunk_stop" t i;
  if i < own_end t then own_end t else t.stops.(find t i)
