(* Compile-fail seed: the raw walk over embedded links. The successor link
   lives in the node and is reached with [Link.of_node], so taking it reads
   the node; no step validates a protection first. *)

open Smr_core

type node = { mutable next : node Link.cell; mutable hdr : Mem.cell }

let length head =
  let rec go acc l =
    let r = Link.get l in
    match Tagged.shape r with
    | Tagged.Null -> acc
    | Tagged.Ptr -> go (acc + 1) (Link.of_node (Tagged.node r))
  in
  go 0 head
