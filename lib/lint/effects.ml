(** Interprocedural effect & purity inference over the typed ASTs, and the
    E-rule checks built on it (E1 purity, E2 handler emission, E3 toplevel
    mutable state, E4 signature drift).

    Every toplevel value binding of every scanned unit gets an inferred
    {e effect signature} — a subset of four flags forming a powerset
    lattice ordered by inclusion, with [pure] (the empty set) at the
    bottom:

    - [reads]   — reads mutable state (a [mutable] record field, [!],
                  [Hashtbl.find], …);
    - [writes]  — mutates state ([<-], [:=], [Hashtbl.replace], …);
    - [io]      — performs input/output or calls an unknown function
                  value (a stored callback, a function argument);
    - [ambient] — reads ambient process state (wall clock, global
                  entropy, environment).

    Inference is a bottom-up fixpoint over the call graph of the whole
    scanned module set: a function's signature is the union of its direct
    effects and the signatures of everything it references. External
    (unscanned) functions are resolved through a checked-in facts file
    ([effects.facts]) so the result is deterministic — an external with no
    fact is assumed to have every effect.

    Deliberate approximations, chosen so the analysis stays predictable:

    - {e reference = call}: mentioning a function taints the mentioner,
      whether or not the value is applied (passing an effectful callback
      counts as invoking it);
    - a lambda's body taints its definition site (a function returning an
      effectful closure is treated as effectful itself);
    - applying anything that is not a statically known function — a
      mutable field projection, a function parameter, a stored callback —
      is worst-case;
    - toplevel bindings destructuring non-variable patterns
      ([let a, b = …]) and module initialisation expressions ([let () = …])
      are not summarised (E3 covers toplevel state).

    The unit of attribution is the {e toplevel} binding: effects of nested
    [let]s, lambdas and local functions fold into the enclosing toplevel
    definition. Definitions are keyed by dotted display names
    ([Omnipaxos.Ble_core.tick]) matching how cross-unit [Path]s print. *)

open Typedtree

(* ------------------------------------------------------------------ *)
(* The effect lattice                                                  *)
(* ------------------------------------------------------------------ *)

let fl_reads = 1
let fl_writes = 2
let fl_io = 4
let fl_ambient = 8
let fl_all = fl_reads lor fl_writes lor fl_io lor fl_ambient

let flag_names =
  [ (fl_reads, "reads"); (fl_writes, "writes"); (fl_io, "io");
    (fl_ambient, "ambient") ]

let flags_to_string fl =
  if fl = 0 then "pure"
  else
    String.concat ","
      (List.filter_map
         (fun (bit, name) -> if fl land bit <> 0 then Some name else None)
         flag_names)

let flags_of_string s =
  if String.equal s "pure" then Ok 0
  else
    let toks =
      List.filter
        (fun t -> not (String.equal t ""))
        (List.map String.trim (String.split_on_char ',' s))
    in
    List.fold_left
      (fun acc tok ->
        match acc with
        | Error _ -> acc
        | Ok fl -> (
            match
              List.find_opt (fun (_, n) -> String.equal n tok) flag_names
            with
            | Some (bit, _) -> Ok (fl lor bit)
            | None -> Error (Printf.sprintf "unknown effect flag %S" tok)))
      (Ok 0) toks

(* ------------------------------------------------------------------ *)
(* Facts file: external summaries, manifests, allowlists, scopes       *)
(* ------------------------------------------------------------------ *)

type facts = {
  fx_exact : (string, int) Hashtbl.t;  (** external name -> flags *)
  fx_prefix : (string * int) list;  (** "List." style prefixes, longest wins *)
  pure_core : string list;  (** E1 manifest: required-pure name prefixes *)
  allow_emit : string list;  (** E2: adapter-shim name prefixes *)
  allow_mutable : string list;  (** E3: sanctioned module/binding prefixes *)
  protocol_dirs : string list;  (** E2/E3 scope: source-path prefixes *)
}

let empty_facts () =
  {
    fx_exact = Hashtbl.create 64;
    fx_prefix = [];
    pure_core = [];
    allow_emit = [];
    allow_mutable = [];
    protocol_dirs = [];
  }

let parse_facts_line ~src ~lineno facts line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let words =
    List.filter
      (fun w -> not (String.equal w ""))
      (String.split_on_char ' '
         (String.map (fun c -> if c = '\t' then ' ' else c) line))
  in
  let err fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "%s:%d: %s" src lineno m)) fmt
  in
  match words with
  | [] -> Ok facts
  | [ "external"; name; flags_s ] -> (
      match flags_of_string flags_s with
      | Error m -> err "%s" m
      | Ok fl ->
          if Filename.check_suffix name "*" then
            let prefix = String.sub name 0 (String.length name - 1) in
            Ok { facts with fx_prefix = (prefix, fl) :: facts.fx_prefix }
          else begin
            Hashtbl.replace facts.fx_exact name fl;
            Ok facts
          end)
  | [ "pure_core"; prefix ] ->
      Ok { facts with pure_core = prefix :: facts.pure_core }
  | [ "allow_emit"; prefix ] ->
      Ok { facts with allow_emit = prefix :: facts.allow_emit }
  | [ "allow_mutable_toplevel"; prefix ] ->
      Ok { facts with allow_mutable = prefix :: facts.allow_mutable }
  | [ "protocol_dir"; dir ] ->
      Ok { facts with protocol_dirs = dir :: facts.protocol_dirs }
  | w :: _ ->
      err
        "expected 'external NAME FLAGS' | 'pure_core P' | 'allow_emit P' | \
         'allow_mutable_toplevel P' | 'protocol_dir D', got %S"
        w

let load_facts path =
  let ic = open_in path in
  let facts = ref (empty_facts ()) in
  let errors = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       incr lineno;
       let line = input_line ic in
       match parse_facts_line ~src:path ~lineno:!lineno !facts line with
       | Ok f -> facts := f
       | Error msg -> errors := msg :: !errors
     done
   with End_of_file -> ());
  close_in ic;
  match !errors with
  | [] -> Ok !facts
  | errs -> Error (List.rev errs)

let string_starts ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let matches_prefix_list prefixes name =
  List.exists (fun p -> string_starts ~prefix:p name) prefixes

(* External lookup: exact fact, else longest matching prefix fact, else a
   single-segment name (a Stdlib top-level primitive such as [+], [fst],
   [not]) defaults to pure, else worst-case. The io-performing Stdlib
   top-level names ([print_string], [exit], …) must therefore be listed
   explicitly in the facts file. *)
let external_flags facts name =
  match Hashtbl.find_opt facts.fx_exact name with
  | Some fl -> Some fl
  | None -> (
      let best =
        List.fold_left
          (fun acc (prefix, fl) ->
            if string_starts ~prefix name then
              match acc with
              | Some (blen, _) when blen >= String.length prefix -> acc
              | _ -> Some (String.length prefix, fl)
            else acc)
          None facts.fx_prefix
      in
      match best with
      | Some (_, fl) -> Some fl
      | None -> if String.contains name '.' then None else Some 0)

(* ------------------------------------------------------------------ *)
(* Definitions                                                         *)
(* ------------------------------------------------------------------ *)

type def = {
  key : string;  (** dotted display name, e.g. "Omnipaxos.Ble_core.tick" *)
  d_unit : string;  (** display unit name, e.g. "Omnipaxos.Ble_core" *)
  d_src : string;  (** source path of the defining unit *)
  d_line : int;
  d_pure_attr : bool;  (** carries [\@pure] *)
  d_allows : Finding.rule list;  (** binding-level + file-level allows *)
  mutable d_direct : int;  (** effects of the body minus project calls *)
  mutable d_eff : int;  (** fixpoint result *)
  mutable d_deps : string list;  (** referenced project definition keys *)
  mutable d_witness : (int * string) list;  (** flag bit -> first cause *)
}

type e2_kind = Field_emit of string | Callee_emit of string

type e2_site = {
  e2_file : string;
  e2_line : int;
  e2_kind : e2_kind;
  e2_encl : string;  (** enclosing definition key *)
  e2_allowed : bool;
}

type e3_site = {
  e3_file : string;
  e3_line : int;
  e3_key : string;
  e3_what : string;  (** which mutable constructor triggered *)
  e3_allowed : bool;
}

type t = {
  facts : facts;
  defs : (string, def) Hashtbl.t;
  mutable def_order : string list;  (** sorted keys *)
  mutable def_order_units : string list;  (** sorted scanned unit names *)
  mutable e2_sites : e2_site list;
  mutable e3_sites : e3_site list;
}

let witness_add d bit cause =
  if not (List.mem_assoc bit d.d_witness) then
    d.d_witness <- (bit, cause) :: d.d_witness

let witness_for d bit =
  match List.assoc_opt bit d.d_witness with
  | Some c -> c
  | None -> "unknown cause"

(* A unit as the driver hands it to us. *)
type unit_input = {
  u_display : string;  (** "Omnipaxos.Ble" *)
  u_src : string;
  u_str : structure;
}

(* "Omnipaxos__Ble" (capitalised cmt unit name) -> "Omnipaxos.Ble". *)
let display_of_unit_name unit_name =
  let rec split acc s =
    match
      (* find "__" *)
      let n = String.length s in
      let rec go i =
        if i + 1 >= n then None
        else if s.[i] = '_' && s.[i + 1] = '_' then Some i
        else go (i + 1)
      in
      go 0
    with
    | None -> List.rev (s :: acc)
    | Some i ->
        split (String.sub s 0 i :: acc)
          (String.sub s (i + 2) (String.length s - i - 2))
  in
  String.concat "." (List.map String.capitalize_ascii (split [] unit_name))

(* ------------------------------------------------------------------ *)
(* Pass 1: collect definitions, module aliases, E3 candidates          *)
(* ------------------------------------------------------------------ *)

(* Local module aliases ([module R = Omnipaxos.Replica]) make use-site
   paths start with a local ident; expand them back to the full path. A
   submodule of the unit is an alias of its key prefix. *)
type unit_ctx = {
  aliases : (Ident.t * Path.t) list ref;
  top_idents : (Ident.t * string) list ref;  (** binding -> key, any depth *)
}

let rec resolve_path ctx p =
  match p with
  | Path.Pident id -> (
      match
        List.find_opt (fun (a, _) -> Ident.same a id) !(ctx.aliases)
      with
      | Some (_, target) -> resolve_path ctx target
      | None -> p)
  | Path.Pdot (base, s) -> Path.Pdot (resolve_path ctx base, s)
  | _ -> p

let mutable_container_names =
  [ "ref"; "Hashtbl.t"; "Queue.t"; "Stack.t"; "Buffer.t"; "Atomic.t";
    "Mutex.t"; "Condition.t"; "Weak.t"; "Dynarray.t" ]

(* Does [ty] hold mutable state reachable without calling a function?
   Arrow types stop the walk: a function returning a table is fine. *)
let rec mutable_container ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> None
  | Types.Ttuple tys -> List.find_map mutable_container tys
  | Types.Tconstr (p, args, _) ->
      if Path.same p Predef.path_array then Some "array"
      else if Path.same p Predef.path_bytes then Some "bytes"
      else
        let n = Rules.normalized_name p in
        if List.exists (String.equal n) mutable_container_names then Some n
        else List.find_map mutable_container args
  | _ -> None

(* A shallow scan of a binding's RHS for records with mutable fields:
   catches [let g = { mutable … }] of project-defined record types, which
   the type-based walk cannot see without an environment. Stops at
   lambdas. *)
let rec rhs_mutable_record (e : expression) =
  match e.exp_desc with
  | Texp_function _ -> None
  | Texp_record { fields; _ } -> (
      let mut =
        Array.fold_left
          (fun acc (ld, _) ->
            match acc with
            | Some _ -> acc
            | None ->
                match ld.Types.lbl_mut with
                | Asttypes.Mutable ->
                    Some ("mutable record field '" ^ ld.Types.lbl_name ^ "'")
                | Asttypes.Immutable -> None)
          None fields
      in
      match mut with
      | Some _ -> mut
      | None ->
          Array.fold_left
            (fun acc (_, rld) ->
              match (acc, rld) with
              | Some _, _ -> acc
              | None, Overridden (_, e') -> rhs_mutable_record e'
              | None, Kept _ -> None)
            None fields)
  | Texp_tuple es | Texp_array es -> List.find_map rhs_mutable_record es
  | Texp_construct (_, _, es) -> List.find_map rhs_mutable_record es
  | Texp_let (_, _, body) -> rhs_mutable_record body
  | _ -> None

let pure_attr (attrs : attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      String.equal a.Parsetree.attr_name.Location.txt "pure")
    attrs

let binding_name (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, name) -> Some (id, name.Location.txt)
  | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, name) ->
      Some (id, name.Location.txt)
  | _ -> None

let in_protocol_scope facts src =
  matches_prefix_list facts.protocol_dirs src

let loc_file_line ~default_file (loc : Location.t) =
  let f = loc.Location.loc_start.Lexing.pos_fname in
  let file = if String.equal f "" then default_file else f in
  (file, loc.Location.loc_start.Lexing.pos_lnum)

let collect_unit t (u : unit_input) ctx =
  let file_allows = Rules.file_level_allows u.u_str in
  let protocol = in_protocol_scope t.facts u.u_src in
  let rec do_structure prefix (str : structure) =
    List.iter (do_item prefix) str.str_items
  and do_item prefix (si : structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match binding_name vb with
            | None -> ()
            | Some (id, name) ->
                let key = String.concat "." (u.u_display :: prefix @ [ name ]) in
                let file, line = loc_file_line ~default_file:u.u_src vb.vb_loc in
                let allows =
                  Rules.allows_of_attributes vb.vb_attributes @ file_allows
                in
                let d =
                  {
                    key;
                    d_unit = u.u_display;
                    d_src = file;
                    d_line = line;
                    d_pure_attr = pure_attr vb.vb_attributes;
                    d_allows = allows;
                    d_direct = 0;
                    d_eff = 0;
                    d_deps = [];
                    d_witness = [];
                  }
                in
                (* Shadowing at the same path: last binding wins, matching
                   what a use site resolves to. *)
                Hashtbl.replace t.defs key d;
                ctx.top_idents := (id, key) :: !(ctx.top_idents);
                if protocol then begin
                  let mut =
                    match mutable_container vb.vb_pat.pat_type with
                    | Some what -> Some ("toplevel " ^ what)
                    | None -> rhs_mutable_record vb.vb_expr
                  in
                  match mut with
                  | None -> ()
                  | Some what ->
                      t.e3_sites <-
                        {
                          e3_file = file;
                          e3_line = line;
                          e3_key = key;
                          e3_what = what;
                          e3_allowed =
                            List.exists (fun r -> r == Finding.E3) allows
                            || matches_prefix_list t.facts.allow_mutable key;
                        }
                        :: t.e3_sites
                end)
          vbs
    | Tstr_module mb -> do_module prefix mb
    | Tstr_recmodule mbs -> List.iter (do_module prefix) mbs
    | _ -> ()
  and do_module prefix (mb : module_binding) =
    let name =
      match mb.mb_name.Location.txt with Some n -> Some n | None -> None
    in
    let rec unwrap (me : module_expr) =
      match me.mod_desc with
      | Tmod_constraint (me', _, _, _) -> unwrap me'
      | _ -> me
    in
    let me = unwrap mb.mb_expr in
    match (me.mod_desc, mb.mb_id, name) with
    | Tmod_ident (p, _), Some id, _ ->
        ctx.aliases := (id, p) :: !(ctx.aliases)
    | Tmod_structure str, id, Some n ->
        let prefix = prefix @ [ n ] in
        let key = String.concat "." (u.u_display :: prefix) in
        Option.iter
          (fun id ->
            ctx.aliases :=
              (id, Path.Pident (Ident.create_persistent key)) :: !(ctx.aliases))
          id;
        do_structure prefix str
    | _ -> ()
  in
  do_structure [] u.u_str

(* ------------------------------------------------------------------ *)
(* Pass 2: per-definition body walk                                    *)
(* ------------------------------------------------------------------ *)

let handler_names = [ "handle"; "tick"; "handle_leader" ]

let last_segment key =
  match String.rindex_opt key '.' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let emit_field_name n =
  String.equal n "send" || String.equal n "emit" || string_starts ~prefix:"on_" n

(* Leading parameters of a toplevel function binding: the idents bound by
   the chain of single-case [fun] nodes (and the [let *opt* = …] default
   elaboration underneath optional arguments). *)
let rec collect_params acc (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs; c_rhs; _ } ]; _ } ->
      let rec pat_vars : type k. Ident.t list -> k general_pattern -> Ident.t list
          =
       fun acc p ->
        match p.pat_desc with
        | Tpat_var (id, _) -> id :: acc
        | Tpat_alias (q, id, _) -> pat_vars (id :: acc) q
        | Tpat_tuple ps -> List.fold_left pat_vars acc ps
        | Tpat_value v -> pat_vars acc (v :> pattern)
        | _ -> acc
      in
      collect_params (pat_vars acc c_lhs) c_rhs
  | Texp_let (Asttypes.Nonrecursive, vbs, body) ->
      (* An optional argument [?(x = d)] elaborates to a leading
         [let x = match *opt* with …] over the already-collected [*opt*]
         ident; rebind it to the user-facing name. Ordinary leading lets
         (local helpers, precomputed values) are not parameters — their
         bodies are walked and attributed to the enclosing definition. *)
      let acc =
        List.fold_left
          (fun acc vb ->
            match (binding_name vb, vb.vb_expr.exp_desc) with
            | Some (id, _), Texp_match (scrut, _, _) -> (
                match scrut.exp_desc with
                | Texp_ident (Path.Pident opt, _, _)
                  when List.exists (fun p -> Ident.same p opt) acc ->
                    id :: acc
                | _ -> acc)
            | _, _ -> acc)
          acc vbs
      in
      collect_params acc body
  | _ -> acc

type walk_state = {
  t : t;
  u : unit_input;
  ctx : unit_ctx;
  def : def;
  params : Ident.t list;
  is_handler : bool;
  mutable allow_stack : Finding.rule list list;
  file_allows : Finding.rule list;
}

let ws_allowed ws rule =
  List.exists (fun r -> r == rule) ws.file_allows
  || List.exists (List.exists (fun r -> r == rule)) ws.allow_stack

let add_direct ws bits cause =
  let d = ws.def in
  let fresh = bits land lnot d.d_direct in
  d.d_direct <- d.d_direct lor bits;
  if fresh <> 0 then
    List.iter
      (fun (bit, _) -> if fresh land bit <> 0 then witness_add d bit cause)
      flag_names

(* Resolve a use-site ident to either a project definition key, an
   external name, a local (no effect), or an unresolved project value. *)
type resolution =
  | R_project of string
  | R_external of string
  | R_local
  | R_unresolved of string

let resolve_ident ws path =
  match path with
  | Path.Pident id -> (
      match
        List.find_opt (fun (i, _) -> Ident.same i id) !(ws.ctx.top_idents)
      with
      | Some (_, key) -> R_project key
      | None -> R_local)
  | _ -> (
      let p = resolve_path ws.ctx path in
      let name = Rules.normalized_name p in
      if Hashtbl.mem ws.t.defs name then R_project name
      else
        (* A scanned unit's member we did not summarise (destructured
           binding, re-export, functor output): worst-case. *)
        let head_in_project =
          List.exists
            (fun u -> string_starts ~prefix:(u ^ ".") name)
            ws.t.def_order_units
        in
        if head_in_project then R_unresolved name else R_external name)

let note_ident ws (path : Path.t) =
  match resolve_ident ws path with
  | R_local -> ()
  | R_project key ->
      if not (List.mem key ws.def.d_deps) then
        ws.def.d_deps <- key :: ws.def.d_deps
  | R_external name -> (
      match external_flags ws.t.facts name with
      | Some fl -> if fl <> 0 then add_direct ws fl ("call to " ^ name)
      | None ->
          add_direct ws fl_all
            ("call to external " ^ name ^ " (no entry in effects.facts)"))
  | R_unresolved name ->
      add_direct ws fl_all ("reference to unsummarised project value " ^ name)

let record_e2 ws ~loc kind =
  if ws.is_handler then
    let file, line = loc_file_line ~default_file:ws.u.u_src loc in
    ws.t.e2_sites <-
      {
        e2_file = file;
        e2_line = line;
        e2_kind = kind;
        e2_encl = ws.def.key;
        e2_allowed =
          ws_allowed ws Finding.E2
          || matches_prefix_list ws.t.facts.allow_emit ws.def.key;
      }
      :: ws.t.e2_sites

let walk_body ws (body : expression) =
  let expr_iter (it : Tast_iterator.iterator) (e : expression) =
    let allows = Rules.allows_of_attributes e.exp_attributes in
    ws.allow_stack <- allows :: ws.allow_stack;
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> note_ident ws path
    | Texp_setfield (_, _, ld, _) ->
        add_direct ws fl_writes
          ("assignment to field '" ^ ld.Types.lbl_name ^ "'")
    | Texp_field (_, _, ld) -> (
        match ld.Types.lbl_mut with
        | Asttypes.Mutable ->
            add_direct ws fl_reads
              ("read of mutable field '" ^ ld.Types.lbl_name ^ "'")
        | Asttypes.Immutable -> ())
    | Texp_letmodule (Some id, _, _, me, _) -> (
        let rec unwrap (m : module_expr) =
          match m.mod_desc with
          | Tmod_constraint (m', _, _, _) -> unwrap m'
          | _ -> m
        in
        match (unwrap me).mod_desc with
        | Tmod_ident (p, _) -> ws.ctx.aliases := (id, p) :: !(ws.ctx.aliases)
        | _ -> ())
    | Texp_apply (funct, _) -> (
        match funct.exp_desc with
        | Texp_ident (Path.Pident id, _, _)
          when List.exists (fun p -> Ident.same p id) ws.params ->
            (* applying a declared argument: the output accumulator.
               Its effects are the caller's business; still worst-case
               for inference (we cannot see the callee). *)
            add_direct ws fl_all
              ("call to function argument '" ^ Ident.name id ^ "'")
        | Texp_ident (path, _, _) -> (
            (* effect accounted by the Texp_ident visit during recursion;
               here we only classify handler emission. *)
            match resolve_ident ws path with
            | R_project key -> record_e2 ws ~loc:e.exp_loc (Callee_emit key)
            | R_external _ | R_local | R_unresolved _ -> ())
        | Texp_field (_, _, ld) ->
            add_direct ws fl_all
              ("call through state field '" ^ ld.Types.lbl_name ^ "'");
            if emit_field_name ld.Types.lbl_name then
              record_e2 ws ~loc:e.exp_loc (Field_emit ld.Types.lbl_name)
        | _ ->
            add_direct ws fl_all "indirect call (computed function value)")
    | _ -> ());
    Tast_iterator.default_iterator.Tast_iterator.expr it e;
    ws.allow_stack <- List.tl ws.allow_stack
  in
  let it = { Tast_iterator.default_iterator with expr = expr_iter } in
  it.Tast_iterator.expr it body

(* ------------------------------------------------------------------ *)
(* Orchestration                                                       *)
(* ------------------------------------------------------------------ *)

let analyze ~facts (units : unit_input list) =
  let t =
    {
      facts;
      defs = Hashtbl.create 256;
      def_order = [];
      def_order_units = [];
      e2_sites = [];
      e3_sites = [];
    }
  in
  let ctxs =
    List.map
      (fun u ->
        let ctx = { aliases = ref []; top_idents = ref [] } in
        collect_unit t u ctx;
        (u, ctx))
      units
  in
  t.def_order <-
    List.sort String.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) t.defs []);
  t.def_order_units <-
    List.sort_uniq String.compare (List.map (fun u -> u.u_display) units);
  (* Pass 2: bodies. *)
  List.iter
    (fun (u, ctx) ->
      let file_allows = Rules.file_level_allows u.u_str in
      let rec do_structure prefix (str : structure) =
        List.iter (do_item prefix) str.str_items
      and do_item prefix (si : structure_item) =
        match si.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match binding_name vb with
                | None -> ()
                | Some (_, name) ->
                    let key =
                      String.concat "." (u.u_display :: prefix @ [ name ])
                    in
                    let def = Hashtbl.find t.defs key in
                    let params = collect_params [] vb.vb_expr in
                    let is_handler =
                      List.exists (String.equal (last_segment key))
                        handler_names
                      && in_protocol_scope facts u.u_src
                    in
                    let ws =
                      {
                        t;
                        u;
                        ctx;
                        def;
                        params;
                        is_handler;
                        allow_stack = [ def.d_allows ];
                        file_allows;
                      }
                    in
                    walk_body ws vb.vb_expr)
              vbs
        | Tstr_module mb -> do_module prefix mb
        | Tstr_recmodule mbs -> List.iter (do_module prefix) mbs
        | _ -> ()
      and do_module prefix (mb : module_binding) =
        let rec unwrap (me : module_expr) =
          match me.mod_desc with
          | Tmod_constraint (me', _, _, _) -> unwrap me'
          | _ -> me
        in
        match ((unwrap mb.mb_expr).mod_desc, mb.mb_name.Location.txt) with
        | Tmod_structure str, Some n -> do_structure (prefix @ [ n ]) str
        | _ -> ()
      in
      do_structure [] u.u_str)
    ctxs;
  (* Fixpoint: union dependency signatures until stable. Deterministic:
     iteration follows the sorted key order and the lattice is finite. *)
  List.iter
    (fun k ->
      let d = Hashtbl.find t.defs k in
      d.d_eff <- d.d_direct)
    t.def_order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun k ->
        let d = Hashtbl.find t.defs k in
        List.iter
          (fun dep ->
            match Hashtbl.find_opt t.defs dep with
            | None -> ()
            | Some c ->
                let fresh = c.d_eff land lnot d.d_eff in
                if fresh <> 0 then begin
                  d.d_eff <- d.d_eff lor fresh;
                  List.iter
                    (fun (bit, _) ->
                      if fresh land bit <> 0 then
                        witness_add d bit ("call to " ^ dep))
                    flag_names;
                  changed := true
                end)
          (List.sort String.compare d.d_deps))
      t.def_order
  done;
  t

(* ------------------------------------------------------------------ *)
(* E-rule adjudication                                                 *)
(* ------------------------------------------------------------------ *)

let e1_findings t =
  List.filter_map
    (fun k ->
      let d = Hashtbl.find t.defs k in
      let required_pure =
        d.d_pure_attr || matches_prefix_list t.facts.pure_core d.key
      in
      if not required_pure then None
      else if List.exists (fun r -> r == Finding.E1) d.d_allows then None
      else
        let offending = d.d_eff land (fl_writes lor fl_io lor fl_ambient) in
        if offending = 0 then None
        else
          let causes =
            List.filter_map
              (fun (bit, name) ->
                if offending land bit <> 0 then
                  Some (Printf.sprintf "%s via %s" name (witness_for d bit))
                else None)
              flag_names
          in
          Some
            {
              Finding.file = d.d_src;
              line = d.d_line;
              rule = Finding.E1;
              msg =
                Printf.sprintf
                  "%s is marked pure but has effects {%s}: %s" d.key
                  (flags_to_string offending)
                  (String.concat "; " causes);
            })
    t.def_order

let e2_findings t =
  List.filter_map
    (fun s ->
      if s.e2_allowed then None
      else
        match s.e2_kind with
        | Field_emit field ->
            Some
              {
                Finding.file = s.e2_file;
                line = s.e2_line;
                rule = Finding.E2;
                msg =
                  Printf.sprintf
                    "%s performs a send/emit through state field '%s'; \
                     return outputs (or use the declared accumulator \
                     argument) instead"
                    s.e2_encl field;
              }
        | Callee_emit key -> (
            match Hashtbl.find_opt t.defs key with
            | Some c
              when c.d_eff land fl_io <> 0
                   && in_protocol_scope t.facts c.d_src ->
                Some
                  {
                    Finding.file = s.e2_file;
                    line = s.e2_line;
                    rule = Finding.E2;
                    msg =
                      Printf.sprintf
                        "%s calls %s whose effects are {%s}; handlers must \
                         return outputs instead of performing sends"
                        s.e2_encl key
                        (flags_to_string c.d_eff);
                  }
            | _ -> None))
    (List.rev t.e2_sites)

let e3_findings t =
  List.filter_map
    (fun s ->
      if s.e3_allowed then None
      else
        Some
          {
            Finding.file = s.e3_file;
            line = s.e3_line;
            rule = Finding.E3;
            msg =
              Printf.sprintf
                "%s is %s at module level in a protocol library; thread \
                 state through the transition core or allowlist the shim \
                 (allow_mutable_toplevel)"
                s.e3_key s.e3_what;
          })
    (List.rev t.e3_sites)

(* ------------------------------------------------------------------ *)
(* Summary file (E4)                                                   *)
(* ------------------------------------------------------------------ *)

type summary_entry = { s_key : string; s_flags : int }

let load_summary path =
  let ic = open_in path in
  let entries = ref [] in
  let errors = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       incr lineno;
       let line = input_line ic in
       let line =
         match String.index_opt line '#' with
         | Some i -> String.sub line 0 i
         | None -> line
       in
       let words =
         List.filter
           (fun w -> not (String.equal w ""))
           (String.split_on_char ' ' (String.trim line))
       in
       match words with
       | [] -> ()
       | [ key; flags_s ] -> (
           match flags_of_string flags_s with
           | Ok fl -> entries := { s_key = key; s_flags = fl } :: !entries
           | Error m ->
               errors := Printf.sprintf "%s:%d: %s" path !lineno m :: !errors)
       | _ ->
           errors :=
             Printf.sprintf "%s:%d: expected '<function> <effects>'" path
               !lineno
             :: !errors
     done
   with End_of_file -> ());
  close_in ic;
  match !errors with
  | [] -> Ok (List.rev !entries)
  | errs -> Error (List.rev errs)

(* The unit a summary key belongs to: longest scanned-unit prefix, or the
   key minus its last segment for units no longer scanned. *)
let unit_of_summary_key t key =
  let best =
    List.fold_left
      (fun acc u ->
        if string_starts ~prefix:(u ^ ".") key then
          match acc with
          | Some b when String.length b >= String.length u -> acc
          | _ -> Some u
        else acc)
      None t.def_order_units
  in
  match best with
  | Some u -> u
  | None -> (
      match String.rindex_opt key '.' with
      | Some i -> String.sub key 0 i
      | None -> key)

(** E4: a module is {e ratcheted} once it has any committed summary entry;
    within a ratcheted module, every definition must appear with a
    signature at least as wide as the inferred one. Returns
    [(findings, stale_keys)] — stale keys are committed entries whose
    definition no longer exists (a warning, an error under [--strict]). *)
let e4_check t entries =
  let ratcheted =
    List.sort_uniq String.compare
      (List.map (fun e -> unit_of_summary_key t e.s_key) entries)
  in
  let committed = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace committed e.s_key e.s_flags) entries;
  let findings =
    List.filter_map
      (fun k ->
        let d = Hashtbl.find t.defs k in
        if not (List.exists (String.equal d.d_unit) ratcheted) then None
        else if List.exists (fun r -> r == Finding.E4) d.d_allows then None
        else
          match Hashtbl.find_opt committed d.key with
          | None ->
              Some
                {
                  Finding.file = d.d_src;
                  line = d.d_line;
                  rule = Finding.E4;
                  msg =
                    Printf.sprintf
                      "%s is new in a ratcheted module (inferred {%s}); \
                       record it with --write-effects" d.key
                      (flags_to_string d.d_eff);
                }
          | Some fl ->
              let widened = d.d_eff land lnot fl in
              if widened = 0 then None
              else
                Some
                  {
                    Finding.file = d.d_src;
                    line = d.d_line;
                    rule = Finding.E4;
                    msg =
                      Printf.sprintf
                        "effect signature of %s widened from {%s} to {%s} \
                         (+%s: %s); narrow the code or re-ratchet with \
                         --write-effects"
                        d.key (flags_to_string fl)
                        (flags_to_string d.d_eff)
                        (flags_to_string widened)
                        (String.concat "; "
                           (List.filter_map
                              (fun (bit, _) ->
                                if widened land bit <> 0 then
                                  Some (witness_for d bit)
                                else None)
                              flag_names));
                  })
      t.def_order
  in
  let stale =
    List.filter_map
      (fun e ->
        if Hashtbl.mem t.defs e.s_key then None else Some e.s_key)
      entries
  in
  (findings, stale)

(* Scope of the written summary: definitions whose source lives under a
   protocol_dir, or every definition when no scope is configured. *)
let summary_scope t =
  match t.facts.protocol_dirs with
  | [] -> t.def_order
  | _ :: _ ->
      List.filter
        (fun k ->
          let d = Hashtbl.find t.defs k in
          in_protocol_scope t.facts d.d_src)
        t.def_order

let write_summary t path =
  let oc = open_out path in
  output_string oc
    "# opxlint effects summary: committed per-function effect signatures\n\
     # (E4 ratchet). A module listed here is ratcheted: new functions and\n\
     # effect widenings fail @lint until re-recorded. Regenerate with:\n\
     #   dune build @check && dune exec bin/opxlint.exe -- \\\n\
     #     --effects-facts effects.facts --effects-summary effects.summary \\\n\
     #     --write-effects _build/default/lib\n";
  let scope = summary_scope t in
  List.iter
    (fun k ->
      let d = Hashtbl.find t.defs k in
      output_string oc
        (Printf.sprintf "%s %s\n" d.key (flags_to_string d.d_eff)))
    scope;
  close_out oc;
  List.length scope

(* ------------------------------------------------------------------ *)
(* Signature table ([--effects])                                       *)
(* ------------------------------------------------------------------ *)

let print_table t oc =
  let width =
    List.fold_left (fun w k -> Stdlib.max w (String.length k)) 0 t.def_order
  in
  List.iter
    (fun k ->
      let d = Hashtbl.find t.defs k in
      output_string oc
        (Printf.sprintf "%-*s  %s\n" width k (flags_to_string d.d_eff)))
    t.def_order

let table_rows t =
  List.map
    (fun k ->
      let d = Hashtbl.find t.defs k in
      (k, flags_to_string d.d_eff))
    t.def_order
