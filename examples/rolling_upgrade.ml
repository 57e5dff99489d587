(* Software upgrade through reconfiguration (§6.1): because each
   configuration runs isolated BLE + Sequence Paxos instances, reconfiguring
   to the *same* set of servers swaps in fresh protocol instances ("new
   version") behind the stop-sign, without any log migration — the paper's
   answer to version-compatibility problems in Raft systems.

   Run with: dune exec examples/rolling_upgrade.exe *)

let () =
  let params =
    {
      Rsm.Reconfig.net_cfg =
        { Rsm.Cluster.default_config with n = 5; election_timeout_ms = 50.0 };
      old_nodes = [ 0; 1; 2; 3; 4 ];
      new_nodes = [ 0; 1; 2; 3; 4 ] (* same servers: a pure upgrade *);
      preload = 0;
      cp = 500;
      reconfigure_at = 3_000.0;
      total_ms = 10_000.0;
      segment_entries = 10_000;
      faults = [];
    }
  in
  Format.printf
    "Upgrading a 5-server cluster in place: configuration c0 is stopped@.\
     with a stop-sign and every server immediately starts its c1 instances@.\
     (no log migration needed - everyone already has the log).@.";
  let r = Rsm.Reconfig.Omni.run params in
  Format.printf "%a" (Rsm.Reconfig.pp_result params "Omni-Paxos upgrade") r;
  match (r.reconfig_committed_at, r.migration_done_at) with
  | Some stop, Some up ->
      Format.printf "switch-over gap: %.0f ms@." (up -. stop)
  | _ -> Format.printf "upgrade did not complete@."
