(* Compile-fail seed: protect, then [protection_valid], then dereference.
   [protection_valid] only says the scheme has not neutralized this thread;
   under HP and HP++ it is constant [true]. Nothing re-read the link, so
   the node may have been unlinked and freed before the slot store. *)

open Smr_core

type node = {
  mutable next : node Link.cell;
  mutable hdr : Mem.cell;
  key : int;
}

module Make (C : sig
  type guard
  type handle

  val protect : guard -> Mem.header -> unit
  val protection_valid : handle -> bool
end) =
struct
  let first_key g h head =
    let r = Link.get head in
    if Tagged.is_null r then None
    else begin
      C.protect g (Tagged.header r);
      if C.protection_valid h then Some (Tagged.node r).key else None
    end
end
