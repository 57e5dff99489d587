type t = { n : int; priority : int; pid : int }

let bottom = { n = 0; priority = min_int; pid = -1 }
let initial ?(priority = 0) ~pid () = { n = 1; priority; pid }

let compare a b =
  let c = Int.compare a.n b.n in
  if c <> 0 then c
  else
    let c = Int.compare a.priority b.priority in
    if c <> 0 then c else Int.compare a.pid b.pid

let equal a b = compare a b = 0
let max a b = if compare a b >= 0 then a else b
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let ( < ) a b = compare a b < 0
let bump_above mine target = { mine with n = target.n + 1 }
let to_event b = { Obs.Event.n = b.n; prio = b.priority; pid = b.pid }
let pp ppf b = Format.fprintf ppf "(n=%d,prio=%d,pid=%d)" b.n b.priority b.pid
