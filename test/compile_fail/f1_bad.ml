(* Compile-fail seed: a failed protection falls back to the expected node.
   The traversal calls try_protect, but on the invalid branch it still
   reads [expected], which was announced in a hazard slot and never
   validated. *)

open Smr_core

type node = {
  mutable next : node Link.cell;
  mutable hdr : Mem.cell;
  key : int;
  value : int;
}

module Make (C : sig
  type guard
  type handle

  val try_protect :
    src:Mem.header ->
    guard ->
    handle ->
    src_link:'a Link.t ->
    'a Tagged.t ->
    'a Tagged.safe
end) =
struct
  let lookup g h head key =
    let rec go src link =
      let expected = Link.get link in
      let cur = C.try_protect ~src g h ~src_link:link expected in
      if Tagged.is_invalid (Tagged.raw cur) then
        match Tagged.shape expected with
        | Tagged.Ptr when (Tagged.node expected).key = key ->
            Some (Tagged.node expected).value
        | _ -> None
      else
        match Tagged.shape (Tagged.raw cur) with
        | Tagged.Null -> None
        | Tagged.Ptr ->
            let n = Tagged.node cur in
            if n.key = key then Some n.value
            else go (Mem.of_node n) (Link.of_node n)
    in
    go Mem.phantom head
end
