(* A link is any block whose field 0 holds the link's [Tagged.t]: a root
   made by [make]/[null] (a one-field [Atomic.t]) or a node whose first
   field is a [mutable _ cell]. The [%atomic_*] primitives behind [Atomic]
   read and write field 0 of whatever block they are given, and
   [caml_atomic_cas] applies the write barrier to that field, so a node
   viewed through [of_node] behaves exactly like a root.

   The invariant that makes [of_node]'s cast sound: its argument is a
   record whose first declared field is a [mutable] [cell] holding links
   to records of the same type. [cell] is abstract, so nothing outside
   this module reads it as a plain field; [mutable] keeps the compiler
   from sharing the block or lifting it to a static constant. *)

type 'a t = 'a Tagged.t Atomic.t
type 'a cell = 'a Tagged.t

let make tagged = Atomic.make tagged
let null () = Atomic.make Tagged.null
let[@inline] cell tagged = tagged
let[@inline] of_node (n : 'a) : 'a t = Obj.magic n
let get = Atomic.get
let get_quiescent l = Tagged.quiescent (Atomic.get l)
let cas l expected desired = Atomic.compare_and_set l expected desired

let cas_clean l expected desired =
  Tagged.tag expected = 0 && Atomic.compare_and_set l expected desired
let set = Atomic.set

let mark_invalid l =
  Atomic.set l (Tagged.set_bits (Atomic.get l) Tagged.invalid_bit)
