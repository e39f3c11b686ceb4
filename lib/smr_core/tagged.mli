(** Tagged pointers: the paper's one-word pointer with mark bits in its low
    bits.

    A clean, non-null value {e is} the node, so {!make} allocates nothing
    and a link that holds a clean value costs a reader one block, the node.
    A null value is an immediate. Only a non-null value with tag bits set
    is a small block of its own, made fresh by every {!with_tag} or
    {!set_bits}. A link's CAS compares values physically: for a clean value
    that is node identity, the paper's word CAS; the algorithms, not fresh
    boxes, keep it free of ABA. Bit 0 ([deleted]) is logical deletion
    (Harris); bit 1 ([invalid]) is HP++ invalidation (§3.2).

    Nodes must be records with at least one non-float field (a tag-0
    block); a value whose block tag is anything else breaks the
    representation.

    Reading a target's fields takes a {!safe} value: {!node} accepts
    nothing else, so a dereference that skipped validation does not
    compile. *)

type 'a t

type 'a safe = private 'a t
(** A value whose target the caller may read: validated against the link
    it came from, or safe for a reason named by one of the escapes below.
    It is the same word as the ['a t] it was made from, so making one
    costs nothing. [Ds_common.try_protect] and
    [Ds_common.protect_pessimistic] produce them, through {!validated}. *)

type shape = Null | Ptr
(** What a value points at, without its target: read it with {!shape},
    then take a [Ptr]'s target with {!node}. *)

val deleted_bit : int
val invalid_bit : int

val null : 'a t
(** Null, tag 0. *)

val invalid : 'a safe
(** Null with the invalid bit: what [Ds_common.try_protect] returns on
    every failure, so a failed protection never hands out a node. *)

val make : ?tag:int -> 'a -> 'a t
(** [make n] is [n] itself; [make ~tag n] with [tag <> 0] is a fresh
    mark block. *)

val of_option : ?tag:int -> 'a option -> 'a t

val shape : 'a t -> shape

val node : 'a safe -> 'a
(** The target of a non-null value, whatever its tag. Undefined on null:
    test {!shape} or {!is_null} first. *)

external raw : 'a safe -> 'a t = "%identity"
(** The same value, for every function that takes an ['a t]. *)

val header : 'a t -> Mem.header
(** The header embedded in a non-null value's target: the target's
    identity, for a hazard slot or an unlink frontier. It reads no field
    of the target, so it needs no {!safe} value. Undefined on null. *)

val tag : 'a t -> int
val is_null : 'a t -> bool
val is_deleted : 'a t -> bool
val is_invalid : 'a t -> bool

val with_tag : 'a t -> int -> 'a t
(** Same target, new tag: the target itself for tag 0 and a fresh mark
    block otherwise. *)

val set_bits : 'a t -> int -> 'a t
(** OR extra bits into the tag. *)

val untagged : 'a t -> 'a t
(** Same target, tag 0. Used by HP++ validation, which must ignore logical
    deletion marks (Algorithm 3 line 9). *)

val same_ptr : 'a t -> 'a t -> bool
(** Physical equality of targets, ignoring tags. Its first test is
    [a == b], which settles two reads of one clean link at once. *)

(** {1 Escapes}

    Each returns its argument as a {!safe} value and is sound only under
    the condition its comment states. Apart from {!invalid}, nothing else
    makes one. *)

external validated : 'a t -> 'a safe = "%identity"
(** The caller announced a protection of the target and validates it by
    its own re-read before it reads any field, or its scheme needs no
    protection (the critical section keeps the target): [Ds_common]'s
    TryProtect, MS-queue's head re-read, EFRBTree's HP step (update and
    link unchanged) and Bonsai's root check, which its [protect_read] and
    [guard_old] make before a node's fields are read. *)

external owned : 'a t -> 'a safe = "%identity"
(** No other thread can retire the target: this thread allocated it and
    has not published it, or this thread's own CAS unlinked it and it is
    not yet retired (a chain being collected for [try_unlink]). *)

external sentinel : 'a t -> 'a safe = "%identity"
(** The target is a sentinel the structure never retires (EFRBTree's S). *)

external quiescent : 'a t -> 'a safe = "%identity"
(** The read ran with no concurrent writer: use {!Link.get_quiescent},
    which is this applied to its read. *)
