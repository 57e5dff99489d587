let majority n = (n / 2) + 1

type members = {
  pids : int array;  (* distinct, ascending *)
  rank : int array;  (* by pid over [0, 1 + max pid): index in [pids], or -1 *)
  quorum : int;
  buf : int array;  (* [index]'s scratch, written before it is read *)
}

let members l =
  let pids = List.sort_uniq Int.compare (List.filter (fun p -> p >= 0) l) in
  let rank = Array.make (1 + List.fold_left max (-1) pids) (-1) in
  List.iteri (fun r p -> rank.(p) <- r) pids;
  let n = List.length pids in
  let buf = Array.make n 0 in
  { pids = Array.of_list pids; rank; quorum = majority n; buf }

let quorum m = m.quorum
let is_member m p = p >= 0 && p < Array.length m.rank && m.rank.(p) >= 0

(* The values above [above] are insertion-sorted, descending, into the
   scratch buffer. *)
let index m (acked : int array) ~self ~local ~above =
  let n = ref 0 in
  for k = 0 to Array.length m.pids - 1 do
    let p = m.pids.(k) in
    let v =
      if p = self then local else if p < Array.length acked then acked.(p)
      else above
    in
    if v > above then begin
      let i = ref !n in
      while !i > 0 && m.buf.(!i - 1) < v do
        m.buf.(!i) <- m.buf.(!i - 1);
        decr i
      done;
      m.buf.(!i) <- v;
      incr n
    end
  done;
  if !n >= m.quorum then m.buf.(m.quorum - 1) else above

(* Member [p] replied since the last [clear] iff [stamp.(p) = epoch]. *)
type t = {
  m : members;
  self : int;
  stamp : int array;
  mutable epoch : int;
  mutable count : int;
}

let mem t p = p >= 0 && p < Array.length t.stamp && t.stamp.(p) = t.epoch

let add t p =
  if is_member t.m p && t.stamp.(p) <> t.epoch then begin
    t.stamp.(p) <- t.epoch;
    t.count <- t.count + 1
  end

let create ?(self = -1) m =
  let stamp = Array.make (Array.length m.rank) (-1) in
  let t = { m; self; stamp; epoch = 0; count = 0 } in
  add t self;
  t

let remove t p =
  if mem t p then begin
    t.stamp.(p) <- -1;
    t.count <- t.count - 1
  end

let count t = t.count
let reached t = t.count >= t.m.quorum

let clear t =
  t.epoch <- t.epoch + 1;
  t.count <- 0;
  add t t.self

let iter f t = Array.iter (fun p -> if mem t p then f p) t.m.pids
let copy t = { t with stamp = Array.copy t.stamp }

let restrict t m =
  let s = create ~self:t.self m in
  Array.iter (fun p -> if mem t p then add s p) t.m.pids;
  s

let mask_add m mask p =
  if is_member m p then mask lor (1 lsl m.rank.(p)) else mask

let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1)
let mask_reached m mask = popcount mask >= m.quorum
