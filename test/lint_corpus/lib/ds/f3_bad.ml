(* smr-lint: allow missing-mli — corpus fixture: parsed, never compiled *)

(* F3 seed: retire-after-publish. The node was CASed into the shared head
   and is therefore reachable by every other domain, yet it is retired on
   the success path — only unlinked nodes may be retired. *)

let push t l v =
  let n = { value = v; next = Link.make Tagged.null } in
  let h = Link.get t.head in
  Link.set n.next h;
  if Link.cas t.head h (Tagged.make n) then S.retire l.handle n
