(* E1 through submodules: a use site resolves to the submodule member's
   own key. [Inner.via_member] reaches [Inner.bump]'s write through a plain
   ident, so it is not pure; [via_sibling] calls the pure [Other.succ]
   through a path into a sibling submodule, so it is. *)

type counter = { mutable count : int }

module Inner = struct
  let bump (c : counter) = c.count <- c.count + 1
  let[@pure] via_member (c : counter) = bump c
end

module Other = struct
  let[@pure] succ n = n + 1
end

let[@pure] via_sibling n = Other.succ n
