(* Declarative fault schedules compiled into simnet actions. See the .mli
   for the schedule/guard semantics. *)

module Net = Simnet.Net

type fault =
  | Crash of int
  | Recover of int
  | Flip_link of int * int
  | Flip_oneway of { src : int; dst : int }
  | Heal_all
  | Isolate of int
  | Quorum_loss of { hub : int }
  | Constrained of { qc : int; leader : int }
  | Chain of int list
  | Latency_spike of { a : int; b : int; ms : float }
  | Reset_session of int * int
  | Restart_after_trim of int

let pp_fault ppf = function
  | Crash i -> Format.fprintf ppf "crash(%d)" i
  | Recover i -> Format.fprintf ppf "recover(%d)" i
  | Flip_link (a, b) -> Format.fprintf ppf "flip(%d,%d)" a b
  | Flip_oneway { src; dst } -> Format.fprintf ppf "flip1(%d->%d)" src dst
  | Heal_all -> Format.fprintf ppf "heal"
  | Isolate i -> Format.fprintf ppf "isolate(%d)" i
  | Quorum_loss { hub } -> Format.fprintf ppf "quorum-loss(hub=%d)" hub
  | Constrained { qc; leader } ->
      Format.fprintf ppf "constrained(qc=%d,leader=%d)" qc leader
  | Chain order ->
      Format.fprintf ppf "chain(%s)"
        (String.concat "-" (List.map string_of_int order))
  | Latency_spike { a; b; ms } ->
      Format.fprintf ppf "latency(%d,%d,%.1fms)" a b ms
  | Reset_session (a, b) -> Format.fprintf ppf "reset-session(%d,%d)" a b
  | Restart_after_trim i -> Format.fprintf ppf "restart-after-trim(%d)" i

let fault_to_string f = Format.asprintf "%a" pp_fault f

let pp_schedule ppf faults =
  Format.fprintf ppf "%s" (String.concat "; " (List.map fault_to_string faults))

(* A distinct pair of nodes, uniform. *)
let pair rng n =
  let a = Random.State.int rng n in
  let b = Random.State.int rng (n - 1) in
  let b = if b >= a then b + 1 else b in
  (a, b)

let random_fault ~rng ~n =
  let roll = Random.State.int rng 100 in
  if roll < 25 then
    let a, b = pair rng n in
    Flip_link (a, b)
  else if roll < 35 then
    let src, dst = pair rng n in
    Flip_oneway { src; dst }
  else if roll < 47 then Crash (Random.State.int rng n)
  else if roll < 59 then Recover (Random.State.int rng n)
  else if roll < 67 then Heal_all
  else if roll < 72 then Isolate (Random.State.int rng n)
  else if roll < 78 then Quorum_loss { hub = Random.State.int rng n }
  else if roll < 82 then
    let qc, leader = pair rng n in
    Constrained { qc; leader }
  else if roll < 87 then begin
    (* A rotation of 0..n-1: a full chain with a random head. *)
    let start = Random.State.int rng n in
    Chain (List.init n (fun i -> (start + i) mod n))
  end
  else if roll < 95 then
    let a, b = pair rng n in
    Latency_spike { a; b; ms = float_of_int (1 + Random.State.int rng 50) }
  else
    let a, b = pair rng n in
    Reset_session (a, b)

let random_schedule ~rng ~n ~length =
  List.init length (fun _ -> random_fault ~rng ~n)

type 'm env = {
  net : 'm Net.t;
  crash_node : int -> unit;
  recover_node : int -> unit;
  base_latency : float;
  trim_count : int -> int;
      (* compaction events observed at a node so far; feeds the
         [Restart_after_trim] guard *)
}

type state = { n : int; down : bool array }

let initial ~n = { n; down = Array.make n false }

let crashed st =
  List.filter (fun i -> st.down.(i)) (List.init st.n (fun i -> i))

let restore_latencies env =
  let n = Net.num_nodes env.net in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      Net.set_latency env.net a b env.base_latency
    done
  done

(* Crashing a majority would trivially wedge every protocol; the guard keeps
   a strict majority of servers alive at all times. *)
let crash_allowed st i =
  (not st.down.(i))
  && Array.fold_left (fun acc d -> if d then acc + 1 else acc) 1 st.down
     <= (st.n - 1) / 2

let execute env st fault =
  match fault with
  | Crash i ->
      if crash_allowed st i then begin
        st.down.(i) <- true;
        env.crash_node i;
        true
      end
      else false
  | Recover i ->
      if st.down.(i) then begin
        st.down.(i) <- false;
        env.recover_node i;
        true
      end
      else false
  | Flip_link (a, b) ->
      Net.set_link env.net a b (not (Net.link_up env.net a b));
      true
  | Flip_oneway { src; dst } ->
      Net.set_link_oneway env.net ~src ~dst (not (Net.link_up env.net src dst));
      true
  | Heal_all ->
      Net.heal_all env.net;
      restore_latencies env;
      true
  | Isolate i ->
      Net.isolate env.net i;
      true
  | Quorum_loss { hub } ->
      Rsm.Scenario.quorum_loss env.net ~hub;
      true
  | Constrained { qc; leader } ->
      Rsm.Scenario.constrained env.net ~qc ~leader;
      true
  | Chain order ->
      Rsm.Scenario.chain_of env.net ~order;
      true
  | Latency_spike { a; b; ms } ->
      Net.set_latency env.net a b ms;
      true
  | Reset_session (a, b) ->
      Net.reset_session env.net a b;
      true
  | Restart_after_trim i ->
      (* Crash-restart a node right after it compacted: the node comes back
         on a log that starts at the trim point, so its recovery (and any
         catch-up of what it missed while down) must go through the
         snapshot, not entry replay. Guarded on an observed compaction so
         random interleavings cannot turn it into a plain bounce. *)
      if (not st.down.(i)) && env.trim_count i > 0 then begin
        env.crash_node i;
        env.recover_node i;
        true
      end
      else false

let apply env st ~step fault =
  let applied = execute env st fault in
  if applied && Obs.Trace.on () then
    Obs.Trace.emit ~node:(-1)
      (Obs.Event.Chaos_fault { step; fault = fault_to_string fault });
  applied

let heal env st =
  Net.heal_all env.net;
  restore_latencies env;
  Array.iteri
    (fun i down ->
      if down then begin
        st.down.(i) <- false;
        env.recover_node i
      end)
    st.down
