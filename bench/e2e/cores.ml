(* The four protocol cores, each through its Rsm adapter: bare for the plain
   run, through Timed.Make for the --layers run. *)

module Core (P : Rsm.Protocol.PROTOCOL) = struct
  module Plain = Runner.Make (Timed.Bare (P))
  module Framed = Runner.Make (Timed.Make (P))

  let entry =
    (Timed.layer_of_name P.name, fun ~timed -> if timed then Framed.run else Plain.run)
end

module Omni = Core (Rsm.Omni_adapter)
module Raft = Core (Rsm.Raft_adapter.Plain)
module Mp = Core (Rsm.Multipaxos_adapter)
module Vr = Core (Rsm.Vr_adapter)

(* Core name ("omnipaxos", "raft", "multipaxos", "vr") -> its run. *)
let table = [ Omni.entry; Raft.entry; Mp.entry; Vr.entry ]
let names = List.map fst table

let run ~timed core =
  match List.assoc_opt core table with
  | Some run -> run ~timed
  | None -> invalid_arg ("unknown core " ^ core)
