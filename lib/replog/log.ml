type 'a slice = { data : 'a array; pos : int; len : int }

type 'a t = {
  mutable data : 'a array;
  mutable size : int;  (* stored entries *)
  mutable offset : int;  (* absolute index of data.(0); > 0 after a trim *)
  mutable lent : int;
      (* one past the highest slot of [data] handed out in a slice: a
         write below it first moves the entries to a fresh array, so a
         slice never sees a later write *)
}

let create () = { data = [||]; size = 0; offset = 0; lent = 0 }

let length t = t.offset + t.size
let first_idx t = t.offset
let is_empty t = length t = 0

let get t i =
  if i < t.offset || i >= length t then
    invalid_arg
      (Printf.sprintf "Log.get: index %d, range [%d, %d)" i t.offset (length t));
  t.data.(i - t.offset)

let last t = if t.size = 0 then None else Some t.data.(t.size - 1)

(* Make room for [extra] entries at [size] that no slice can see, moving
   the entries to a fresh array when [data] is full or a slice was handed
   slots at or above [size] (a [truncate] or [set_suffix] cut below them).
   [fill] pads the fresh array. *)
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
  reserve t 1 x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let append_list t xs = List.iter (append t) xs

let of_list xs =
  let t = create () in
  append_list t xs;
  t

let copy t =
  { data = Array.copy t.data; size = t.size; offset = t.offset; lent = 0 }

(* The array range [pos, pos + len) of the stored entries that [sub] and
   [slice] read for the absolute range [pos, pos + len). *)
let range name t ~pos ~len =
  if pos < 0 || len < 0 then
    invalid_arg ("Log." ^ name ^ ": negative argument");
  if len > 0 && pos < t.offset then
    invalid_arg
      (Printf.sprintf "Log.%s: position %d below the trim point %d" name pos
         t.offset);
  let pos = min (pos - t.offset) t.size in
  (pos, min len (t.size - pos))

let sub t ~pos ~len =
  let pos, len = range "sub" t ~pos ~len in
  let rec collect i acc =
    if i < pos then acc else collect (i - 1) (t.data.(i) :: acc)
  in
  if len <= 0 then [] else collect (pos + len - 1) []

let suffix t ~from = sub t ~pos:(max from t.offset) ~len:(max 0 (length t - from))

let empty_slice = { data = [||]; pos = 0; len = 0 }

let slice t ~pos ~len =
  let pos, len = range "slice" t ~pos ~len in
  if len <= 0 then empty_slice
  else begin
    t.lent <- max t.lent (pos + len);
    { data = t.data; pos; len }
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
  let n = s.len - skip in
  if n > 0 then begin
    reserve t n s.data.(s.pos + skip);
    Array.blit s.data (s.pos + skip) t.data t.size n;
    t.size <- t.size + n
  end

let truncate t n =
  if n < 0 then invalid_arg "Log.truncate: negative length";
  if n < t.offset then
    invalid_arg
      (Printf.sprintf "Log.truncate: %d below the trim point %d" n t.offset);
  if n < length t then t.size <- n - t.offset

let set_suffix t ~at s ~skip =
  if at < t.offset || at > length t then
    invalid_arg
      (Printf.sprintf "Log.set_suffix: at %d, range [%d, %d]" at t.offset
         (length t));
  t.size <- at - t.offset;
  append_slice t s ~skip

(* Discard the prefix below [upto] (absolute index). The log's indexing
   stays absolute; reads below the trim point raise. When no slice can see
   the array, the live tail moves to its front and the vacated slots are
   cleared (to the first live entry, so no trimmed entry stays reachable):
   the capacity survives the trim, and a log trimmed every compaction
   interval does not grow again from an exact-size array. A slice may see
   the array ([lent > 0], e.g. a leader's in-flight Accepts), or nothing
   is left to clear with: the tail then moves to a fresh array. *)
let trim t ~upto =
  if upto > length t then
    invalid_arg
      (Printf.sprintf "Log.trim: upto %d beyond length %d" upto (length t));
  if upto > t.offset then begin
    let drop = upto - t.offset in
    let remaining = t.size - drop in
    if t.lent = 0 && remaining > 0 then begin
      Array.blit t.data drop t.data 0 remaining;
      Array.fill t.data remaining drop t.data.(0)
    end
    else begin
      t.data <-
        (if remaining = 0 then [||] else Array.sub t.data drop remaining);
      t.lent <- 0
    end;
    t.size <- remaining;
    t.offset <- upto
  end

(* Install a snapshot boundary: discard everything and restart the log at
   absolute index [offset] (the receiver's state below it comes from a state
   snapshot, not from entries). *)
let reset_to t ~offset =
  if offset < 0 then invalid_arg "Log.reset_to: negative offset";
  t.data <- [||];
  t.size <- 0;
  t.offset <- offset;
  t.lent <- 0

let to_list t = if t.size = 0 then [] else sub t ~pos:t.offset ~len:t.size

let iteri_from t ~from f =
  for i = max t.offset from to length t - 1 do
    f i t.data.(i - t.offset)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
