(* Unit and property tests for the log substrate, commands and the KV state
   machine. *)

module Log = Replog.Log
module Command = Replog.Command

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_append_get () =
  let l = Log.create () in
  check "empty" true (Log.is_empty l);
  for i = 0 to 99 do
    Log.append l (i * 2)
  done;
  check_int "length" 100 (Log.length l);
  check_int "get" 84 (Log.get l 42);
  check "last" true (Log.last l = Some 198);
  check "out of bounds raises" true
    (try
       ignore (Log.get l 100);
       false
     with Invalid_argument _ -> true)

let test_suffix_sub () =
  let l = Log.of_list [ 0; 1; 2; 3; 4 ] in
  check "suffix" true (Log.suffix l ~from:3 = [ 3; 4 ]);
  check "suffix from 0" true (Log.suffix l ~from:0 = [ 0; 1; 2; 3; 4 ]);
  check "suffix past end" true (Log.suffix l ~from:7 = []);
  check "sub" true (Log.sub l ~pos:1 ~len:2 = [ 1; 2 ]);
  check "sub clamps" true (Log.sub l ~pos:4 ~len:10 = [ 4 ]);
  check "sub empty" true (Log.sub l ~pos:2 ~len:0 = [])

let test_truncate_set_suffix () =
  let l = Log.of_list [ 0; 1; 2; 3; 4 ] in
  Log.truncate l 3;
  check "truncate" true (Log.to_list l = [ 0; 1; 2 ]);
  Log.truncate l 10;
  check "truncate beyond is a no-op" true (Log.to_list l = [ 0; 1; 2 ]);
  Log.set_suffix l ~at:1 (Log.slice_of_list [ 9; 8 ]) ~skip:0;
  check "set_suffix" true (Log.to_list l = [ 0; 9; 8 ]);
  Log.set_suffix l ~at:3 (Log.slice_of_list [ 7 ]) ~skip:0;
  check "set_suffix at end appends" true (Log.to_list l = [ 0; 9; 8; 7 ]);
  check "set_suffix beyond raises" true
    (try
       Log.set_suffix l ~at:9 (Log.slice_of_list []) ~skip:0;
       false
     with Invalid_argument _ -> true)

let test_trim () =
  let l = Log.of_list [ 0; 1; 2; 3; 4; 5 ] in
  Log.trim l ~upto:3;
  check_int "length is absolute" 6 (Log.length l);
  check_int "first_idx moved" 3 (Log.first_idx l);
  check_int "reads above the trim point work" 4 (Log.get l 4);
  check "reads below the trim point raise" true
    (try
       ignore (Log.get l 2);
       false
     with Invalid_argument _ -> true);
  check "suffix from below clamps to the trim point" true
    (Log.suffix l ~from:0 = [ 3; 4; 5 ]);
  Log.append l 6;
  check_int "appends continue at absolute indices" 7 (Log.length l);
  check "idempotent re-trim" true
    (Log.trim l ~upto:2;
     Log.first_idx l = 3);
  Log.trim l ~upto:7;
  check_int "trim everything" 7 (Log.first_idx l);
  check "trim beyond length raises" true
    (try
       Log.trim l ~upto:9;
       false
     with Invalid_argument _ -> true)

(* A trim no slice can see moves the entries down in place: the log keeps
   its array, so refilling it to the length it had allocates nothing in
   the major heap (a fresh exact-size array would grow again by
   doubling). *)
let test_trim_keeps_capacity () =
  let n = 10_000 in
  let l = Log.create () in
  for i = 0 to n - 1 do
    Log.append l i
  done;
  Log.trim l ~upto:(n / 2);
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let before = major_words () in
  for i = n to n + (n / 2) - 1 do
    Log.append l i
  done;
  let words = major_words () -. before in
  Alcotest.(check (float 0.)) "major words refilling after a trim" 0. words;
  check_int "first entry kept" (n / 2) (Log.get l (n / 2));
  let last = n + (n / 2) - 1 in
  check_int "last entry appended" last (Log.get l last)

(* A slice taken before a trim keeps reading its entries, however the log
   is written afterwards: the trim moves the entries to a fresh array
   instead of shifting the one the slice shares. *)
let test_trim_under_slice () =
  let l = Log.of_list (List.init 10 Fun.id) in
  let s = Log.slice l ~pos:4 ~len:4 in
  Log.trim l ~upto:6;
  Log.set_suffix l ~at:7 (Log.slice_of_list [ 70; 80 ]) ~skip:0;
  Log.append l 90;
  check "the log moved on" true (Log.to_list l = [ 6; 70; 80; 90 ]);
  check "the slice did not" true (Log.slice_to_list s = [ 4; 5; 6; 7 ])

let test_copy_iter_fold () =
  let l = Log.of_list [ 1; 2; 3 ] in
  let c = Log.copy l in
  Log.append l 4;
  check_int "copy is independent" 3 (Log.length c);
  let sum = Log.fold l ~init:0 ~f:( + ) in
  check_int "fold" 10 sum;
  let seen = ref [] in
  Log.iteri_from l ~from:2 (fun i x -> seen := (i, x) :: !seen);
  check "iteri_from" true (List.rev !seen = [ (2, 3); (3, 4) ])

(* Entries below the trim point are gone: [sub] and [slice] raise for a
   non-empty range starting there, and an empty range is fine. *)
let test_sub_below_trim () =
  let l = Log.of_list [ 0; 1; 2; 3; 4; 5 ] in
  Log.trim l ~upto:3;
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check "sub below the trim point raises" true
    (raises (fun () -> Log.sub l ~pos:1 ~len:4));
  check "sub ending at the trim point raises" true
    (raises (fun () -> Log.sub l ~pos:2 ~len:1));
  check "slice below the trim point raises" true
    (raises (fun () -> Log.slice l ~pos:1 ~len:4));
  check "empty sub below the trim point" true (Log.sub l ~pos:1 ~len:0 = []);
  check_int "empty slice below the trim point" 0
    (Log.slice_length (Log.slice l ~pos:1 ~len:0));
  check "sub from the trim point" true (Log.sub l ~pos:3 ~len:9 = [ 3; 4; 5 ]);
  check "negative arguments raise" true
    (raises (fun () -> Log.sub l ~pos:(-1) ~len:0)
    && raises (fun () -> Log.sub l ~pos:3 ~len:(-1)))

let test_slices () =
  let l = Log.of_list [ 0; 1; 2; 3; 4 ] in
  let s = Log.slice l ~pos:1 ~len:3 in
  check_int "slice_length" 3 (Log.slice_length s);
  check_int "slice_get" 2 (Log.slice_get s 1);
  check "slice_to_list" true (Log.slice_to_list s = [ 1; 2; 3 ]);
  check "slice clamps like sub" true
    (Log.slice_to_list (Log.slice l ~pos:3 ~len:10) = [ 3; 4 ]);
  check "slice_get out of bounds raises" true
    (try
       ignore (Log.slice_get s 3);
       false
     with Invalid_argument _ -> true);
  (* Overwriting a slot the slice can see leaves the slice as it was. *)
  Log.set_suffix l ~at:2 (Log.slice_of_list [ 7; 8 ]) ~skip:0;
  check "the log is rewritten" true (Log.to_list l = [ 0; 1; 7; 8 ]);
  check "the slice is not" true (Log.slice_to_list s = [ 1; 2; 3 ]);
  Log.append_slice l s ~skip:1;
  check "append_slice skips" true (Log.to_list l = [ 0; 1; 7; 8; 2; 3 ]);
  Log.append_slice l s ~skip:5;
  check_int "skipping everything appends nothing" 6 (Log.length l);
  check "slice_of_list round-trips" true
    (Log.slice_to_list (Log.slice_of_list [ 5; 6 ]) = [ 5; 6 ])

type op =
  | Append of int
  | Append_slice of int * int  (** a taken slice (mod their count), skip *)
  | Set_suffix of int * int list  (** [at] mod the valid range *)
  | Truncate of int
  | Trim of int
  | Reset_to of int
  | Take of int * int  (** [pos] mod the valid range, [len] *)

let show_op = function
  | Append x -> Printf.sprintf "append %d" x
  | Append_slice (i, k) -> Printf.sprintf "append_slice #%d ~skip:%d" i k
  | Set_suffix (a, xs) ->
      Printf.sprintf "set_suffix %d [%s]" a
        (String.concat ";" (List.map string_of_int xs))
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Trim n -> Printf.sprintf "trim %d" n
  | Reset_to n -> Printf.sprintf "reset_to %d" n
  | Take (p, n) -> Printf.sprintf "take %d %d" p n

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun x -> Append x) small_int);
        (2, map2 (fun i k -> Append_slice (i, k)) small_nat (int_bound 4));
        ( 2,
          map2 (fun a xs -> Set_suffix (a, xs)) small_nat (small_list small_int)
        );
        (1, map (fun n -> Truncate n) small_nat);
        (1, map (fun n -> Trim n) small_nat);
        (1, map (fun n -> Reset_to n) (int_bound 30));
        (4, map2 (fun p n -> Take (p, n)) small_nat (int_bound 8));
      ])

let take n xs = List.filteri (fun i _ -> i < n) xs
let drop n xs = List.filteri (fun i _ -> i >= n) xs

(* A slice keeps reading the entries it had when it was taken, whatever the
   log does afterwards, and the log matches a list model ([offset] and the
   stored entries above it) throughout. *)
let prop_slices_immutable =
  QCheck.Test.make ~name:"slices never see later writes" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_bound 60) op_gen))
    (fun ops ->
      let l = Log.create () in
      let offset = ref 0 and model = ref [] in
      let taken = ref [] in
      let at_most_len n = n mod (List.length !model + 1) in
      let step = function
        | Append x ->
            Log.append l x;
            model := !model @ [ x ]
        | Append_slice (i, skip) -> (
            match !taken with
            | [] -> ()
            | ts ->
                let s, xs = List.nth ts (i mod List.length ts) in
                Log.append_slice l s ~skip;
                model := !model @ drop skip xs)
        | Set_suffix (a, xs) ->
            let k = at_most_len a in
            Log.set_suffix l ~at:(!offset + k) (Log.slice_of_list xs) ~skip:0;
            model := take k !model @ xs
        | Truncate n ->
            let k = at_most_len n in
            Log.truncate l (!offset + k);
            model := take k !model
        | Trim n ->
            let k = at_most_len n in
            Log.trim l ~upto:(!offset + k);
            offset := !offset + k;
            model := drop k !model
        | Reset_to n ->
            Log.reset_to l ~offset:n;
            offset := n;
            model := []
        | Take (p, n) ->
            let k = at_most_len p in
            let s = Log.slice l ~pos:(!offset + k) ~len:n in
            taken := (s, take n (drop k !model)) :: !taken
      in
      List.for_all
        (fun op ->
          step op;
          Log.first_idx l = !offset
          && Log.length l = !offset + List.length !model
          && Log.to_list l = !model
          && List.for_all
               (fun (s, xs) ->
                 Log.slice_length s = List.length xs
                 && Log.slice_to_list s = xs
                 && List.for_all2 ( = )
                      (List.init (Log.slice_length s) (Log.slice_get s))
                      xs)
               !taken)
        ops)

(* A follower's log keeps the slices it receives as segments. Against a
   list model of both logs: the leader ([l], own-array writes) and the
   follower ([f], which appends the leader's slices with a random skip,
   and also cuts, overwrites, trims across segment boundaries, resets,
   appends (a flatten), slices and copies). Every entry is a fresh int, so
   a read of the wrong slot shows. After each step the follower reads
   like its model through every read function (and the chunk walk), and
   every slice taken and every copy made earlier of either log still reads
   what it read when taken. *)
type seg_op =
  | L_append
  | L_truncate of int
  | L_set_suffix of int * int  (** [at], entries *)
  | L_trim of int
  | Send of int * int * int  (** leader slice [pos], [len], skip *)
  | F_append
  | F_truncate of int
  | F_set_suffix of int * int * int  (** [at], leader slice [pos], [len] *)
  | F_trim of int
  | F_reset of int
  | F_take of int * int
  | F_sub of int * int
  | F_copy

let show_seg_op = function
  | L_append -> "l.append"
  | L_truncate n -> Printf.sprintf "l.truncate %d" n
  | L_set_suffix (a, k) -> Printf.sprintf "l.set_suffix %d (%d entries)" a k
  | L_trim n -> Printf.sprintf "l.trim %d" n
  | Send (p, n, k) -> Printf.sprintf "send %d %d ~skip:%d" p n k
  | F_append -> "f.append"
  | F_truncate n -> Printf.sprintf "f.truncate %d" n
  | F_set_suffix (a, p, n) -> Printf.sprintf "f.set_suffix %d (l %d %d)" a p n
  | F_trim n -> Printf.sprintf "f.trim %d" n
  | F_reset n -> Printf.sprintf "f.reset_to %d" n
  | F_take (p, n) -> Printf.sprintf "f.slice %d %d" p n
  | F_sub (p, n) -> Printf.sprintf "f.sub %d %d" p n
  | F_copy -> "f.copy"

let seg_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return L_append);
        (1, map (fun n -> L_truncate n) small_nat);
        (1, map2 (fun a k -> L_set_suffix (a, k)) small_nat (int_bound 4));
        (1, map (fun n -> L_trim n) small_nat);
        ( 8,
          map3 (fun p n k -> Send (p, n, k)) small_nat (int_range 1 6)
            (frequency [ (3, return 0); (1, int_bound 4) ]) );
        (1, return F_append);
        (1, map (fun n -> F_truncate n) small_nat);
        ( 1,
          map3 (fun a p n -> F_set_suffix (a, p, n)) small_nat small_nat
            (int_bound 5) );
        (2, map (fun n -> F_trim n) small_nat);
        (1, map (fun n -> F_reset n) (int_bound 60));
        (2, map2 (fun p n -> F_take (p, n)) small_nat (int_bound 8));
        (2, map2 (fun p n -> F_sub (p, n)) small_nat (int_bound 8));
        (1, return F_copy);
      ])

(* The entries of [l] read chunk by chunk. *)
let chunks_to_list l =
  let rec walk i acc =
    if i >= Log.length l then List.rev acc
    else begin
      let a = Log.chunk l i and p = Log.chunk_pos l i in
      let stop = Log.chunk_stop l i in
      let acc = ref acc in
      for j = 0 to stop - i - 1 do
        acc := a.(p + j) :: !acc
      done;
      walk stop !acc
    end
  in
  walk (Log.first_idx l) []

let prop_segments_model =
  QCheck.Test.make ~name:"segmented log matches the list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_seg_op ops))
       QCheck.Gen.(list_size (int_range 20 80) seg_op_gen))
    (fun ops ->
      let next = ref 0 in
      let fresh () =
        incr next;
        !next
      in
      let l = Log.create () and f = Log.create () in
      let l_off = ref 0 and l_model = ref [] in
      let f_off = ref 0 and f_model = ref [] in
      let taken = ref [] and copies = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let within model n = n mod (List.length !model + 1) in
      let leader_slice p n =
        let k = within l_model p in
        (Log.slice l ~pos:(!l_off + k) ~len:n, take n (drop k !l_model))
      in
      let step = function
        | L_append ->
            let x = fresh () in
            Log.append l x;
            l_model := !l_model @ [ x ]
        | L_truncate n ->
            let k = within l_model n in
            Log.truncate l (!l_off + k);
            l_model := take k !l_model
        | L_set_suffix (a, n) ->
            let k = within l_model a and xs = List.init n (fun _ -> fresh ()) in
            Log.set_suffix l ~at:(!l_off + k) (Log.slice_of_list xs) ~skip:0;
            l_model := take k !l_model @ xs
        | L_trim n ->
            let k = within l_model n in
            Log.trim l ~upto:(!l_off + k);
            l_off := !l_off + k;
            l_model := drop k !l_model
        | Send (p, n, skip) ->
            let s, xs = leader_slice p n in
            taken := (s, xs) :: !taken;
            Log.append_slice f s ~skip;
            f_model := !f_model @ drop skip xs
        | F_append ->
            let x = fresh () in
            Log.append f x;
            f_model := !f_model @ [ x ]
        | F_truncate n ->
            let k = within f_model n in
            Log.truncate f (!f_off + k);
            f_model := take k !f_model
        | F_set_suffix (a, p, n) ->
            let k = within f_model a and s, xs = leader_slice p n in
            Log.set_suffix f ~at:(!f_off + k) s ~skip:0;
            f_model := take k !f_model @ xs
        | F_trim n ->
            let k = within f_model n in
            Log.trim f ~upto:(!f_off + k);
            f_off := !f_off + k;
            f_model := drop k !f_model
        | F_reset n ->
            Log.reset_to f ~offset:n;
            f_off := n;
            f_model := []
        | F_take (p, n) ->
            let k = within f_model p in
            let s = Log.slice f ~pos:(!f_off + k) ~len:n in
            taken := (s, take n (drop k !f_model)) :: !taken
        | F_sub (p, n) ->
            let k = within f_model p in
            expect (Log.sub f ~pos:(!f_off + k) ~len:n = take n (drop k !f_model))
        | F_copy -> copies := (Log.copy f, !f_off, !f_model) :: !copies
      in
      let reads_like log off model =
        let len = List.length model in
        Log.first_idx log = off
        && Log.length log = off + len
        && Log.to_list log = model
        && chunks_to_list log = model
        && Log.suffix log ~from:0 = model
        && List.for_all2 ( = ) (List.init len (fun i -> Log.get log (off + i))) model
        && Log.last log = (if len = 0 then None else Some (List.nth model (len - 1)))
        && Log.fold log ~init:0 ~f:(fun n _ -> n + 1) = len
        && (try
              ignore (Log.get log (off + len));
              false
            with Invalid_argument _ -> true)
      in
      List.iter
        (fun op ->
          step op;
          expect (reads_like l !l_off !l_model);
          expect (reads_like f !f_off !f_model);
          List.iter (fun (s, xs) -> expect (Log.slice_to_list s = xs)) !taken;
          List.iter
            (fun (c, off, model) -> expect (reads_like c off model))
            !copies)
        ops;
      !ok)

(* set_suffix agrees with the list model: take at, then append. *)
let prop_set_suffix_model =
  QCheck.Test.make ~name:"set_suffix matches the list model" ~count:200
    QCheck.(triple (small_list small_int) small_nat (small_list small_int))
    (fun (init, at, suffix) ->
      let at = if init = [] then 0 else at mod (List.length init + 1) in
      let l = Log.of_list init in
      Log.set_suffix l ~at (Log.slice_of_list suffix) ~skip:0;
      let model = List.filteri (fun i _ -> i < at) init @ suffix in
      Log.to_list l = model)

let prop_suffix_model =
  QCheck.Test.make ~name:"suffix matches the list model" ~count:200
    QCheck.(pair (small_list small_int) small_nat)
    (fun (init, from) ->
      let l = Log.of_list init in
      Log.suffix l ~from = List.filteri (fun i _ -> i >= from) init)

let test_command_sizes () =
  check_int "noop is the paper's 8 bytes" 8 (Command.size (Command.noop 1));
  check "puts grow with payload" true
    (Command.size (Command.make ~id:1 (Command.Kv_put ("key", "value"))) > 8);
  check_int "blob" 100 (Command.size (Command.make ~id:1 (Command.Blob 100)))

let test_kv_semantics () =
  let kv = Replog.Kv.create () in
  let apply op = Replog.Kv.apply kv (Command.make ~id:0 op) in
  check "get missing" true (apply (Command.Kv_get "a") = Replog.Kv.Value None);
  ignore (apply (Command.Kv_put ("a", "1")));
  check "get hits" true
    (apply (Command.Kv_get "a") = Replog.Kv.Value (Some "1"));
  ignore (apply (Command.Kv_put ("a", "2")));
  check "overwrite" true (Replog.Kv.get kv "a" = Some "2");
  ignore (apply (Command.Kv_del "a"));
  check "delete" true (Replog.Kv.get kv "a" = None);
  check_int "applied count" 5 (Replog.Kv.applied kv)

let test_kv_snapshot_roundtrip () =
  let kv = Replog.Kv.create () in
  let apply op = ignore (Replog.Kv.apply kv (Command.make ~id:0 op)) in
  apply (Command.Kv_put ("alpha", "1"));
  apply (Command.Kv_put ("beta:with:colons", "va:lue"));
  apply (Command.Kv_put ("gamma", ""));
  apply (Command.Kv_del "alpha");
  let restored = Replog.Kv.restore (Replog.Kv.snapshot kv) in
  check "deleted key absent" true (Replog.Kv.get restored "alpha" = None);
  check "colon-laden key survives" true
    (Replog.Kv.get restored "beta:with:colons" = Some "va:lue");
  check "empty value survives" true (Replog.Kv.get restored "gamma" = Some "");
  check_int "applied counter carried over" 4 (Replog.Kv.applied restored)

(* The versioned snapshot envelope: byte-stable golden, round-trip and
   corruption detection. The golden is load-bearing — snapshots cross the
   wire between protocol versions, so the encoding must never drift
   silently. *)
let test_snapshot_envelope () =
  let kv = Replog.Kv.create () in
  let apply op = ignore (Replog.Kv.apply kv (Command.make ~id:0 op)) in
  apply (Command.Kv_put ("a", "1"));
  apply (Command.Kv_put ("b", "two"));
  let bytes = Replog.Snapshot.encode ~last_idx:7 ~client_cmds:5 kv in
  Alcotest.(check string)
    "byte-stable encoding" "opxsnap1;7;5;c2163262;2;1:a1:11:b3:two" bytes;
  let s = Replog.Snapshot.decode_exn bytes in
  check_int "last_idx round-trips" 7 s.Replog.Snapshot.last_idx;
  check_int "client_cmds round-trips" 5 s.Replog.Snapshot.client_cmds;
  let restored = Replog.Snapshot.restore s in
  check "state round-trips" true
    (Replog.Kv.get restored "a" = Some "1"
    && Replog.Kv.get restored "b" = Some "two");
  (* Insertion order must not affect the bytes (key-sorted payload). *)
  let kv2 = Replog.Kv.create () in
  let apply2 op = ignore (Replog.Kv.apply kv2 (Command.make ~id:0 op)) in
  apply2 (Command.Kv_put ("b", "two"));
  apply2 (Command.Kv_put ("a", "1"));
  check "history-independent bytes" true
    (Replog.Snapshot.encode ~last_idx:7 ~client_cmds:5 kv2 = bytes);
  (* Corruption and malformed input are rejected, not misparsed: also a
     valid checksum over a payload [restore] cannot read, and negative
     header counts. *)
  let flipped = Bytes.of_string bytes in
  Bytes.set flipped (String.length bytes - 1) 'x';
  let wrap ?(last_idx = 3) ?(client_cmds = 2) payload =
    Replog.Snapshot.encode_payload ~last_idx ~client_cmds ~payload
  in
  List.iter
    (fun (what, bytes) ->
      check what true (Result.is_error (Replog.Snapshot.decode bytes)))
    [
      ("checksum catches corruption", Bytes.to_string flipped);
      ("bad magic rejected", "nope" ^ bytes);
      ("truncated rejected", String.sub bytes 0 12);
      ("no applied separator", wrap "x");
      ("field longer than the payload", wrap "0;3:abc99:x");
      ("negative field length", wrap "0;-1:a");
      ("non-numeric applied count", wrap "zz;");
      ("key without a value", wrap "0;1:a");
      ("overflowing length", wrap "0;99999999999999999999:a");
      ("negative last_idx", wrap ~last_idx:(-1) "0;");
      ("negative client_cmds", wrap ~client_cmds:(-1) "0;");
    ];
  check "empty store still decodes" true
    (Result.is_ok (Replog.Snapshot.decode (wrap "0;")))

(* Seeded mutations of a real snapshot: byte overwrites (of the envelope,
   and of the payload under a recomputed checksum) and truncation. [decode]
   never raises, and [restore] never raises on what it accepts. *)
let test_snapshot_mutations () =
  let kv = Replog.Kv.create () in
  for i = 0 to 19 do
    ignore
      (Replog.Kv.apply kv
         (Command.make ~id:i
            (Command.Kv_put (Printf.sprintf "key%d" i, String.make i 'v'))))
  done;
  let clean = Replog.Snapshot.encode ~last_idx:20 ~client_cmds:20 kv in
  let payload = Replog.Kv.snapshot kv in
  let rng = Random.State.make [| 11 |] in
  let mutate s =
    let b = Bytes.of_string s in
    for _ = 1 to 1 + Random.State.int rng 4 do
      Bytes.set_uint8 b
        (Random.State.int rng (Bytes.length b))
        (Random.State.int rng 256)
    done;
    Bytes.to_string b
  in
  let accepted = ref 0 in
  for round = 1 to 1000 do
    let bytes =
      match round mod 3 with
      | 0 -> mutate clean
      | 1 ->
          Replog.Snapshot.encode_payload ~last_idx:20 ~client_cmds:20
            ~payload:(mutate payload)
      | _ -> String.sub clean 0 (Random.State.int rng (String.length clean))
    in
    match Replog.Snapshot.decode bytes with
    | Error _ -> ()
    | Ok snap -> (
        incr accepted;
        match Replog.Snapshot.restore snap with
        | _ -> ()
        | exception exn ->
            Alcotest.failf "round %d: restore raised %s" round
              (Printexc.to_string exn))
    | exception exn ->
        Alcotest.failf "round %d: decode raised %s" round
          (Printexc.to_string exn)
  done;
  check "some mutations still decode" true (!accepted > 0)

(* Index translation at the compaction boundary: trim at 0, at the decided
   frontier, double-compaction, and the reset_to jump used by snapshot
   installs. *)
let test_trim_translation () =
  let l = Log.of_list [ 10; 11; 12; 13; 14; 15 ] in
  Log.trim l ~upto:0;
  check_int "trim at 0 is a no-op" 0 (Log.first_idx l);
  Log.trim l ~upto:4;
  Log.trim l ~upto:6;
  check_int "double compaction compounds" 6 (Log.first_idx l);
  check_int "absolute length is unchanged" 6 (Log.length l);
  check "suffix at the frontier is empty" true (Log.suffix l ~from:6 = []);
  Log.append l 16;
  check_int "appends continue above the frontier" 16 (Log.get l 6);
  (* A snapshot install jumps the log to an offset it never reached. *)
  let j = Log.create () in
  Log.reset_to j ~offset:9;
  check_int "reset_to sets first_idx" 9 (Log.first_idx j);
  check_int "reset_to sets length" 9 (Log.length j);
  check "reads below the installed offset raise" true
    (try
       ignore (Log.get j 8);
       false
     with Invalid_argument _ -> true);
  Log.append j 99;
  check_int "appends continue at the offset" 99 (Log.get j 9);
  check "sub of the empty retained suffix" true (Log.sub j ~pos:9 ~len:0 = [])

(* Snapshot/restore is lossless for random states. *)
let prop_kv_snapshot_lossless =
  QCheck.Test.make ~name:"kv snapshot/restore is lossless" ~count:100
    QCheck.(small_list (pair (string_of_size (Gen.int_bound 8)) (string_of_size (Gen.int_bound 8))))
    (fun pairs ->
      let kv = Replog.Kv.create () in
      List.iteri
        (fun i (k, v) ->
          ignore (Replog.Kv.apply kv (Command.make ~id:i (Command.Kv_put (k, v)))))
        pairs;
      (* Through the envelope, so [decode] must accept every real state. *)
      let restored =
        Replog.Snapshot.(
          restore (decode_exn (encode ~last_idx:0 ~client_cmds:0 kv)))
      in
      List.for_all
        (fun (k, _) -> Replog.Kv.get restored k = Replog.Kv.get kv k)
        pairs)

(* Two KV stores applying the same command sequence agree: determinism of
   the state machine. *)
let prop_kv_deterministic =
  let cmd_gen =
    QCheck.Gen.(
      map2
        (fun k which ->
          match which mod 3 with
          | 0 -> Command.Kv_put ("k" ^ string_of_int k, string_of_int which)
          | 1 -> Command.Kv_get ("k" ^ string_of_int k)
          | _ -> Command.Kv_del ("k" ^ string_of_int k))
        (int_bound 5) int)
  in
  QCheck.Test.make ~name:"kv state machine is deterministic" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 50) cmd_gen))
    (fun ops ->
      let run () =
        let kv = Replog.Kv.create () in
        List.iteri
          (fun i op -> ignore (Replog.Kv.apply kv (Command.make ~id:i op)))
          ops;
        List.map (fun i -> Replog.Kv.get kv ("k" ^ string_of_int i))
          [ 0; 1; 2; 3; 4; 5 ]
      in
      run () = run ())

(* ---------------- quorum ---------------- *)

module Quorum = Replog.Quorum

(* The quorum index the slow way: sort the values above [above] of the
   distinct [members] ([self] holds [local], an absent value is not
   counted) and take the majority-th largest. *)
let reference_index ~members ~acked ~self ~local ~above =
  let value p =
    if p = self then Some local
    else if p < Array.length acked then Some acked.(p)
    else None
  in
  let values =
    List.filter (fun v -> v > above) (List.filter_map value members)
  in
  let q = (List.length members / 2) + 1 in
  if List.length values >= q then
    List.nth (List.sort (fun a b -> Int.compare b a) values) (q - 1)
  else above

(* Up to 65 drawn members out of [0, 64] (so gaps and duplicates), reply
   operations from pids in [-2, 70] (non-members, repeats, removals and
   clears), a value array that may stop short of the largest member, and
   a self, local value and floor. *)
let quorum_case =
  let pid = QCheck.Gen.int_range (-2) 70 in
  QCheck.Gen.(
    quad
      (list_size (int_range 0 65) (int_bound 64))
      (list_size (int_bound 80) (pair (int_bound 9) pid))
      (array_size (int_bound 70) (int_range (-1) 40))
      (triple pid (int_range (-1) 40) (int_range (-1) 20)))

let prop_quorum_reference =
  QCheck.Test.make ~name:"quorum matches the sorted-list reference"
    ~count:500 (QCheck.make quorum_case)
    (fun (drawn, ops, acked, (self, local, above)) ->
      let members = List.sort_uniq Int.compare drawn in
      let m = Quorum.members drawn in
      let s = Quorum.create m in
      let replied = ref [] in
      let pids = List.init 73 (fun i -> i - 2) in
      let agrees () =
        Quorum.count s = List.length !replied
        && Quorum.reached s
           = (List.length !replied >= (List.length members / 2) + 1)
        && List.for_all (fun p -> Quorum.mem s p = List.mem p !replied) pids
      in
      let step (op, p) =
        (match op with
        | 0 ->
            Quorum.clear s;
            replied := []
        | 1 ->
            Quorum.remove s p;
            replied := List.filter (fun r -> r <> p) !replied
        | _ ->
            Quorum.add s p;
            if List.mem p members && not (List.mem p !replied) then
              replied := p :: !replied);
        agrees ()
      in
      let iterated () =
        let seen = ref [] in
        Quorum.iter (fun p -> seen := p :: !seen) s;
        List.rev !seen = List.sort Int.compare !replied
      in
      let restricted () =
        let evens = List.filter (fun p -> p mod 2 = 0) drawn in
        let kept = Quorum.restrict s (Quorum.members evens) in
        List.for_all
          (fun p ->
            Quorum.mem kept p = (List.mem p !replied && List.mem p evens))
          pids
      in
      let masked () =
        let mask =
          List.fold_left (fun mask (_, p) -> Quorum.mask_add m mask p) 0 ops
        in
        let acked =
          List.filter (fun p -> List.mem p members) (List.map snd ops)
        in
        List.length members > 63
        || Quorum.mask_reached m mask
           = (List.length (List.sort_uniq Int.compare acked)
             >= (List.length members / 2) + 1)
      in
      Quorum.quorum m = (List.length members / 2) + 1
      && List.for_all (fun p -> Quorum.is_member m p = List.mem p members) pids
      && List.for_all step ops
      && iterated () && restricted () && masked ()
      && Quorum.index m acked ~self ~local ~above
         = reference_index ~members ~acked ~self ~local ~above)

(* Replies and quorum indexes over 65 members with gaps allocate
   nothing. *)
let test_quorum_alloc_free () =
  let m = Quorum.members (List.init 65 (fun i -> 2 * i)) in
  let s = Quorum.create m in
  let acked = Array.init 130 (fun p -> p mod 17) in
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    if i mod 100 = 0 then Quorum.clear s;
    Quorum.add s (i mod 140);
    if Quorum.reached s then
      sum := !sum + Quorum.index m acked ~self:0 ~local:i ~above:(i mod 9)
  done;
  let words = Gc.minor_words () -. w0 in
  check "a quorum was reached" true (!sum > 0);
  Alcotest.(check (float 0.)) "adds and indexes allocate nothing" 0. words

let () =
  Alcotest.run "replog"
    [
      ( "log",
        [
          Alcotest.test_case "append/get" `Quick test_append_get;
          Alcotest.test_case "suffix/sub" `Quick test_suffix_sub;
          Alcotest.test_case "truncate/set_suffix" `Quick
            test_truncate_set_suffix;
          Alcotest.test_case "trim" `Quick test_trim;
          Alcotest.test_case "trim keeps the capacity" `Quick
            test_trim_keeps_capacity;
          Alcotest.test_case "a slice outlives a trim" `Quick
            test_trim_under_slice;
          Alcotest.test_case "copy/iter/fold" `Quick test_copy_iter_fold;
          Alcotest.test_case "sub below the trim point" `Quick
            test_sub_below_trim;
          Alcotest.test_case "slices" `Quick test_slices;
        ] );
      ( "command/kv",
        [
          Alcotest.test_case "command sizes" `Quick test_command_sizes;
          Alcotest.test_case "kv semantics" `Quick test_kv_semantics;
          Alcotest.test_case "kv snapshot roundtrip" `Quick
            test_kv_snapshot_roundtrip;
          Alcotest.test_case "snapshot envelope" `Quick test_snapshot_envelope;
          Alcotest.test_case "snapshot mutations never raise" `Quick
            test_snapshot_mutations;
          Alcotest.test_case "trim index translation" `Quick
            test_trim_translation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_set_suffix_model;
          QCheck_alcotest.to_alcotest prop_suffix_model;
          QCheck_alcotest.to_alcotest prop_slices_immutable;
          QCheck_alcotest.to_alcotest prop_segments_model;
          QCheck_alcotest.to_alcotest prop_kv_deterministic;
          QCheck_alcotest.to_alcotest prop_kv_snapshot_lossless;
        ] );
      ( "quorum",
        [
          QCheck_alcotest.to_alcotest prop_quorum_reference;
          Alcotest.test_case "add allocates nothing" `Quick
            test_quorum_alloc_free;
        ] );
    ]
