(** The partial-connectivity scenarios of §2, as link-matrix schedules over
    the simulated network. Each function applies the partition immediately;
    combine with [Simnet.Net.schedule] to stage them mid-run. *)

module Net = Simnet.Net

(* Quorum-loss (Figure 1a): every server stays connected to [hub], all other
   links are cut. The current leader (≠ hub) remains alive but loses
   quorum-connectivity. *)
let quorum_loss net ~hub =
  let n = Net.num_nodes net in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if a <> hub && b <> hub then Net.set_link net a b false
    done
  done

(* Constrained election (Figure 1b): [leader] is fully partitioned and [qc]
   is the only quorum-connected server (connected to everyone except the
   leader). To make [qc]'s log outdated, cut the [qc]–[leader] link some
   time before calling this. *)
let constrained net ~qc ~leader =
  let n = Net.num_nodes net in
  Net.isolate net leader;
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if a <> qc && b <> qc && a <> leader && b <> leader then
        Net.set_link net a b false
    done
  done

(* Chained (Figure 1c): cut a single link so the servers form a chain. With
   three servers, cutting [a]–[b] leaves the third server as the middle of
   the chain. *)
let chained net ~a ~b = Net.set_link net a b false

(* A full chain over the given order: only consecutive servers stay
   connected. With five or more servers no fully-connected server exists —
   the configuration in which the paper shows Raft and Multi-Paxos
   livelock. *)
let chain_of net ~order =
  let arr = Array.of_list order in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i + 2 to n - 1 do
      Net.set_link net arr.(i) arr.(j) false
    done
  done

(* The chained scenario with [leader] at one end: with three or fewer
   servers one cut between [leader] and the lowest other server (Figure
   1c); with more, a full chain over [leader] and then the others in
   ascending order, leaving no fully-connected server. *)
let chain_from net ~leader =
  let n = Net.num_nodes net in
  match List.filter (fun i -> i <> leader) (List.init n Fun.id) with
  | [] -> ()
  | first :: _ as rest ->
      if n <= 3 then chained net ~a:leader ~b:first
      else chain_of net ~order:(leader :: rest)

let heal = Net.heal_all
