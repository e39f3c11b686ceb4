(* Compile-fail seed: [Tagged.node] of a link read that was announced in a
   hazard slot but never validated. The slot store alone proves nothing:
   the link may have moved and the node been freed before it. *)

open Smr_core

type node = {
  mutable next : node Link.cell;
  mutable hdr : Mem.cell;
  key : int;
}

module Make (C : sig
  type guard

  val protect : guard -> Mem.header -> unit
end) =
struct
  let first_key g head =
    let r = Link.get head in
    if Tagged.is_null r then None
    else begin
      C.protect g (Tagged.header r);
      Some (Tagged.node r).key
    end
end
