(* Reconfiguration walkthrough (§6 of the paper): stop a 5-server
   configuration with a stop-sign, migrate the log to a new server in
   parallel from all continuing servers, and continue in the new
   configuration — then compare against Raft's leader-driven scheme.

   Run with: dune exec examples/reconfiguration.exe *)

let () =
  let params =
    {
      Rsm.Reconfig.net_cfg =
        {
          Rsm.Cluster.default_config with
          n = 8;
          egress_bw = 1000.0 (* 1 MB/s: makes the migration visible *);
          election_timeout_ms = 250.0;
        };
      old_nodes = [ 0; 1; 2; 3; 4 ];
      new_nodes = [ 0; 1; 2; 3; 5 ] (* replace server 4 with server 5 *);
      preload = 200_000 (* pre-existing log: 200k 8-byte entries *);
      cp = 500;
      reconfigure_at = 10_000.0;
      total_ms = 40_000.0;
      segment_entries = 25_000;
      faults = [];
    }
  in
  Format.printf
    "Replacing server 4 with server 5 in a 5-server cluster that already@.\
     holds a %d-entry log. The new server must fetch %.1f MB before it can@.\
     participate.@."
    params.preload
    (float_of_int (params.preload * 8) /. 1.0e6);
  let omni = Rsm.Reconfig.Omni.run params in
  let raft = Rsm.Reconfig.Raft_runner.run params in
  Format.printf "%a@?" (Rsm.Reconfig.pp_comparison params) (omni, raft)
