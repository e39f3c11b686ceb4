(** An atomic tagged link: one mutable pointer field of a node.

    A link is any block whose field 0 holds the link's {!Tagged.t}. A root
    link ({!make}, {!null}) is a block of its own. A list node embeds its
    successor link instead: the node's record declares a [mutable] {!cell}
    as its {e first} field, and {!of_node} views the node itself as that
    link. A clean value in the link is the successor node itself
    ({!Tagged}), so a traversal step over a clean link loads one block, the
    successor. Structures with several successors per node (the
    trees, the skip list) keep one {!make}/{!null} block per successor. *)

type 'a t

type 'a cell
(** The type of an embedded link field. It is abstract: the field is read
    and written only through {!of_node}. *)

val make : 'a Tagged.t -> 'a t
val null : unit -> 'a t

val cell : 'a Tagged.t -> 'a cell
(** The initial value of an embedded link field, for the node's record
    literal. *)

val of_node : 'a -> 'a t
(** [of_node n] is the link embedded in [n], for a record type whose first
    declared field is [mutable next : 'a cell] (['a] being that record type
    itself). The result aliases [n]: no allocation, no copy. Passing any
    other value is undefined behaviour. *)

val get : 'a t -> 'a Tagged.t

val get_quiescent : 'a t -> 'a Tagged.safe
(** [get] under a declared quiescence contract: the caller asserts no
    concurrent writer exists (single-domain tests, post-shutdown audits,
    debug walkers), so the value read is {!Tagged.safe} without any
    protection. smr_lint flags any function that both declares quiescence
    and synchronizes (F7 quiescent-mixing), so the contract cannot
    silently leak into concurrent paths. *)

val cas : 'a t -> 'a Tagged.t -> 'a Tagged.t -> bool
(** Compare-and-set by physical equality with the value previously read
    with {!get}: node identity for a clean value (the paper's word CAS),
    the very mark block read for a tagged one. *)

val cas_clean : 'a t -> 'a Tagged.t -> 'a Tagged.t -> bool
(** Like {!cas}, but additionally fails when [expected] carries any tag
    bits. This emulates the paper's value-semantics
    [compare_exchange(untagged_ptr, desired)]: structural CASes (insert,
    unlink) must fail if the source link was logically deleted or
    invalidated in the meantime — even when the traversal legitimately kept
    going past that point (optimistic traversal may hold a tagged value of
    the link after HP++'s TryProtect chased a concurrent update). *)

val set : 'a t -> 'a Tagged.t -> unit
(** Plain store. HP++ invalidation is allowed to use a store instead of an
    RMW because links of to-be-unlinked nodes no longer change
    (Assumption 1). *)

val mark_invalid : 'a t -> unit
(** [set] the invalidation bit, preserving pointer and other tag bits. *)
