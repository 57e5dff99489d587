(* Wrapper fidelity: Timed.Make (Rsm.Omni_adapter) behaves exactly like the
   bare adapter (same client series, same decided ids on every node), and
   a frame around an empty body allocates nothing. Prints the per-call cost
   of the wrapper. Exits non-zero on any failure. *)

open E2e

let config =
  {
    Rsm.Cluster.default_config with
    n = 5;
    seed = 7;
    batching = Omnipaxos.Batching.adaptive;
    compaction = Omnipaxos.Compaction.make ~retain:100 1000;
  }

module Trace_of (P : Rsm.Protocol.PROTOCOL) = struct
  module C = Rsm.Cluster.Make (P)

  (* Decided count per 10 ms window, then each node's decided ids. *)
  let run () =
    let c = C.create config in
    let client = C.start_client c ~cp:500 in
    C.run_ms c 1500.0;
    let series =
      Rsm.Metrics.Series.windowed (Rsm.Client.series client) ~from:0.0
        ~until:1500.0 ~window:10.0
    in
    let ids = List.init config.Rsm.Cluster.n (fun i -> P.decided_ids (C.node c i) ~from:0) in
    (series, ids)
end

module Bare = Trace_of (Rsm.Omni_adapter)
module Wrapped = Trace_of (Timed.Make (Rsm.Omni_adapter))

let failures = ref 0

let check name ok =
  Printf.printf "%s: %s\n" name (if ok then "ok" else "FAIL");
  if not ok then incr failures

let () =
  let s0, ids0 = Bare.run () in
  Frames.reset ();
  let s1, ids1 = Wrapped.run () in
  check "client series identical" (s0 = s1);
  check "decided ids identical" (ids0 = ids1);
  check "wrapped run committed" (List.exists (fun l -> List.length l > 1000) ids1);
  check "frames closed" (!Frames.depth = 0);
  Frames.reset ();
  let ns = Frames.wrapper_ns_per_call () in
  check "empty frame allocates nothing" (Frames.self_words.(Frames.s_empty) = 0);
  check "empty frame counted" (Frames.calls.(Frames.s_empty) = 1_000_000);
  Printf.printf "bench.wrapper_ns_per_call %.1f ns\n" ns;
  if !failures > 0 then exit 1
