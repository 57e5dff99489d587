(* Versioned state-machine snapshot envelope. See snapshot.mli. *)

type t = { last_idx : int; client_cmds : int; payload : string }

let magic = "opxsnap1"

(* FNV-1a, folded to 32 bits so the hex rendering is platform-independent
   (OCaml ints are 63-bit; without the mask the same bytes would render
   differently on a 32-bit runtime). *)
let checksum s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

let encode_payload ~last_idx ~client_cmds ~payload =
  Printf.sprintf "%s;%d;%d;%08x;%s" magic last_idx client_cmds
    (checksum payload) payload

let encode ~last_idx ~client_cmds kv =
  encode_payload ~last_idx ~client_cmds ~payload:(Kv.snapshot kv)

let decode s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let next_field pos =
    match String.index_from_opt s pos ';' with
    | Some stop -> Some (String.sub s pos (stop - pos), stop + 1)
    | None -> None
  in
  match next_field 0 with
  | Some (m, pos) when String.equal m magic -> (
      match next_field pos with
      | None -> fail "snapshot: truncated after magic"
      | Some (idx_s, pos) -> (
          match next_field pos with
          | None -> fail "snapshot: truncated after last_idx"
          | Some (cmds_s, pos) -> (
              match next_field pos with
              | None -> fail "snapshot: truncated after client_cmds"
              | Some (sum_s, pos) -> (
                  let payload =
                    String.sub s pos (String.length s - pos)
                  in
                  match
                    ( int_of_string_opt idx_s,
                      int_of_string_opt cmds_s,
                      int_of_string_opt ("0x" ^ sum_s) )
                  with
                  | Some last_idx, Some client_cmds, Some sum ->
                      if last_idx < 0 || client_cmds < 0 then
                        fail "snapshot: negative last_idx or client_cmds"
                      else if sum <> checksum payload then
                        fail "snapshot: checksum mismatch (%08x vs %08x)" sum
                          (checksum payload)
                      else if not (Kv.restorable payload) then
                        fail "snapshot: malformed KV payload"
                      else Ok { last_idx; client_cmds; payload }
                  | _ -> fail "snapshot: malformed header fields"))))
  | Some (m, _) -> fail "snapshot: bad magic %S (want %S)" m magic
  | None -> fail "snapshot: no header"

let decode_exn s =
  match decode s with Ok t -> t | Error m -> invalid_arg m

let restore t = Kv.restore t.payload
