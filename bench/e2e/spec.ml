(* The four workloads and the settings they share. Sizes are per replica
   at scale 1 (the default --seconds 5); [--seconds S] scales every
   measured phase by S/5. At scale 1 the measured phases of one run take
   about 3-5 host seconds on a 2-core x86-64 VM. *)

let tick_ms = 5.0
let election_timeout_ms = 50.0
let latency_ms = 0.1
let windows = 8
let reference_seconds = 5.0

type load =
  | Closed of int  (** Rsm.Client with this many concurrent proposals *)
  | Open of float  (** Poisson arrivals, commands per simulated second *)

type t = {
  name : string;
  why : string;
  cores : string list;  (** run in turn, each on a fresh cluster *)
  n : int;
  egress_bw : float;  (** bytes per simulated ms; [infinity] = unlimited *)
  load : load;
  measure_ms : float;  (** simulated length of the measured phase, per core *)
  fault_unit_ms : float;
      (** omni-faults: the fault cycle is 29 units; 0 = no faults *)
  cycles : int;
  traced : bool;  (** full binary tracing plus the invariant monitor *)
  single_node : bool;  (** --layers: add the 1 s single-node phase *)
}

type sizing = {
  scale : float;
  warmup_ms : float;
  replicas : int;
      (** identical runs of one seed per core, one after the other; each
          window takes the fastest, [setup_s] the median set-up *)
}

let sizing ~seconds =
  { scale = seconds /. reference_seconds; warmup_ms = 1000.0; replicas = 7 }

(* About 1/20 of the full size, for the runtest smoke. *)
let smoke = { scale = 0.05; warmup_ms = 200.0; replicas = 1 }
let fault_cycle_units = 29.0

let all sz =
  let s = sz.scale in
  let cycles = max 1 (Float.to_int (Float.round (2.0 *. s))) in
  let fault_unit_ms = Float.max 100.0 (1000.0 *. Float.min 1.0 s) in
  [
    {
      name = "omni-pipeline";
      why =
        "Omni-Paxos n=5 on a 10 MB/s LAN, closed loop cp=5000: the \
         per-entry path (propose, Accept append, decide scan, client queue) \
         does almost all the work";
      cores = [ "omnipaxos" ];
      n = 5;
      egress_bw = 10_000.0;
      load = Closed 5000;
      measure_ms = 4_000.0 *. s;
      fault_unit_ms = 0.0;
      cycles = 0;
      traced = false;
      single_node = true;
    };
    {
      name = "omni-wide";
      why =
        "Omni-Paxos n=33, closed loop cp=100: the per-message path (33-way \
         heartbeats, 32-way accept fan-out) dominates and per-entry work is \
         small";
      cores = [ "omnipaxos" ];
      n = 33;
      egress_bw = infinity;
      load = Closed 100;
      measure_ms = 12_000.0 *. s;
      fault_unit_ms = 0.0;
      cycles = 0;
      traced = false;
      single_node = false;
    };
    {
      name = "peers-pipeline";
      why =
        "omni-pipeline's configuration through Raft, Multi-Paxos and VR in \
         turn: the same per-entry path through the other adapters and cores";
      cores = [ "raft"; "multipaxos"; "vr" ];
      n = 5;
      egress_bw = 10_000.0;
      load = Closed 5000;
      measure_ms = 1_500.0 *. s;
      fault_unit_ms = 0.0;
      cycles = 0;
      traced = false;
      single_node = false;
    };
    {
      name = "omni-faults";
      why =
        "Omni-Paxos n=5, open loop 20k cmd/s through quorum-loss, \
         constrained, chain and crash-recover faults, fully traced: \
         elections, log sync, snapshot installs and the trace sinks";
      cores = [ "omnipaxos" ];
      n = 5;
      egress_bw = infinity;
      load = Open 20_000.0;
      measure_ms = float_of_int cycles *. fault_cycle_units *. fault_unit_ms;
      fault_unit_ms;
      cycles;
      traced = true;
      single_node = false;
    };
  ]

let names = List.map (fun w -> w.name) (all smoke)
let find sz name = List.find_opt (fun w -> String.equal w.name name) (all sz)

let load_params = function
  | Closed cp -> [ ("load", "closed"); ("cp", string_of_int cp) ]
  | Open rate -> [ ("load", "open-poisson"); ("rate_per_s", Printf.sprintf "%g" rate) ]

(* Every parameter of a workload as recorded in the --json envelope. *)
let params w sz =
  [
    ("cores", String.concat "," w.cores);
    ("n", string_of_int w.n);
    ("egress_bytes_per_ms", Printf.sprintf "%g" w.egress_bw);
    ("latency_ms", Printf.sprintf "%g" latency_ms);
    ("tick_ms", Printf.sprintf "%g" tick_ms);
    ("election_timeout_ms", Printf.sprintf "%g" election_timeout_ms);
    ("batching", "adaptive");
    ("compaction", "interval=10000,retain=1000");
    ("measure_ms", Printf.sprintf "%g" w.measure_ms);
    ("windows", string_of_int windows);
    ("warmup_ms", Printf.sprintf "%g" sz.warmup_ms);
    ("replicas", string_of_int sz.replicas);
    ("fault_unit_ms", Printf.sprintf "%g" w.fault_unit_ms);
    ("fault_cycles", string_of_int w.cycles);
    ("traced", string_of_bool w.traced);
  ]
  @ load_params w.load

let cluster_config w ~seed ~n =
  {
    Rsm.Cluster.n;
    tick_ms;
    election_timeout_ms;
    latency_ms;
    egress_bw = w.egress_bw;
    seed;
    batching = Omnipaxos.Batching.adaptive;
    compaction = Omnipaxos.Compaction.make ~retain:1000 10_000;
  }
