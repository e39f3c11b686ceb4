(** Bonsai weight-balanced tree (paper §5): immutable nodes; an update
    copies the affected path, swings the root with one CAS and retires the
    replaced path in one batch with an empty frontier. Works with every
    scheme. *)

module Make (S : Smr.Smr_intf.S) : sig
  type 'v node = {
    key : int;
    mutable hdr : Smr_core.Mem.cell;
    value : 'v;
    left : 'v node option;
    right : 'v node option;
    size : int;
    invalid : bool Atomic.t;
  }

  type 'v t = { scheme : S.t; root : 'v node Smr_core.Link.t }

  include
    Ds_intf.MAP
      with type scheme = S.t
       and type handle = S.handle
       and type 'v t := 'v t

  val root_of : 'v node Smr_core.Tagged.safe -> 'v node option

  val fold : 'v t -> local -> init:'a -> f:('a -> int -> 'v -> 'a) -> 'a
  (** A consistent in-order snapshot scan: folds over the tree one root
      version points at, protected against concurrent updates. *)

  val size_quiescent : 'v t -> int
  (** The root's subtree size, read without protection. *)

  val assert_balanced : 'v t -> unit
end
