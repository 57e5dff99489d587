type config = {
  adaptive : bool;
  max_batch : int;
  min_batch : int;
  ack_every : int;
}

let fixed =
  { adaptive = false; max_batch = 4096; min_batch = 4096; ack_every = 1 }

let adaptive =
  { adaptive = true; max_batch = 4096; min_batch = 64; ack_every = 4 }

let name c = if c.adaptive then "adaptive" else "fixed"

let validated c =
  let min_batch = max 1 c.min_batch in
  {
    c with
    min_batch;
    max_batch = max min_batch c.max_batch;
    ack_every = max 1 c.ack_every;
  }
