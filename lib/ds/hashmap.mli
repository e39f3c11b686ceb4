(** Chaining hash table of a fixed power-of-two array of list buckets:
    HHSList buckets when the scheme supports optimistic traversal,
    Harris–Michael buckets otherwise (HP). Works with every scheme. *)

module Make (S : Smr.Smr_intf.S) : sig
  include Ds_intf.MAP with type scheme = S.t and type handle = S.handle

  val create_sized : buckets:int -> S.t -> 'v t
  (** [create] with [buckets] rounded up to a power of two (default 512). *)
end
