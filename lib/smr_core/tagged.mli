(** Tagged pointers, the paper's low-bit encoding lifted to a variant.

    The C/Rust implementations pack mark bits into pointer low bits. Here a
    tagged pointer is an immutable block — [Null tag] or [Ptr (node, tag)] —
    stored in an [Atomic.t]; a traversal step matches on the constructor, so
    reading the target allocates nothing and chases no [option] box. Every
    write stores a freshly allocated block and CAS compares blocks
    physically, which gives the same single-word CAS semantics. Bit 0
    ([deleted]) is logical deletion (Harris); bit 1 ([invalid]) is HP++
    invalidation (§3.2). *)

type 'a t = private Null of int | Ptr of 'a * int

val deleted_bit : int
val invalid_bit : int

val null : 'a t
(** [Null 0], shared. *)

val invalid : 'a t
(** [Null invalid_bit], shared: what [Ds_common.try_protect] returns on
    every failure, so a failed protection never hands out a node. *)

val make : ?tag:int -> 'a -> 'a t
(** A fresh [Ptr]. *)

val of_option : ?tag:int -> 'a option -> 'a t
(** A fresh [Ptr] or [Null]. *)

val tag : 'a t -> int

val get_exn : 'a t -> 'a
(** @raise Invalid_argument on null. *)

val is_null : 'a t -> bool
val is_deleted : 'a t -> bool
val is_invalid : 'a t -> bool

val with_tag : 'a t -> int -> 'a t
(** Same pointer, new tag (a fresh block: safe wrt physical-equality CAS). *)

val set_bits : 'a t -> int -> 'a t
(** OR extra bits into the tag. *)

val untagged : 'a t -> 'a t
(** Same pointer, tag 0. Used by HP++ validation, which must ignore logical
    deletion marks (Algorithm 3 line 9). *)

val same_ptr : 'a t -> 'a t -> bool
(** Physical equality of targets, ignoring tags. *)
