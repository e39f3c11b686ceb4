(* Compile-fail seed: the classic raw traversal. Every node is fetched with
   a plain [Link.get] and taken with [Tagged.node] on the [Tagged.Ptr] arm,
   with no protection at all. *)

open Smr_core

type node = {
  mutable next : node Link.cell;
  mutable hdr : Mem.cell;
  key : int;
  value : int;
}

let lookup head key =
  let rec go l =
    let r = Link.get l in
    match Tagged.shape r with
    | Tagged.Null -> None
    | Tagged.Ptr ->
        let n = Tagged.node r in
        if n.key = key then Some n.value else go (Link.of_node n)
  in
  go head
