(** Lock-free skiplist; towers unlink level by level, and a node is retired
    once its last level is unlinked. Works with every scheme. *)

module Make (S : Smr.Smr_intf.S) : sig
  type 'v node = {
    key : int;
    mutable hdr : Smr_core.Mem.cell;
    value : 'v;
    next : 'v node Smr_core.Link.t array;
    remaining : int Atomic.t;
  }

  type 'v t = { scheme : S.t; head : 'v node Smr_core.Link.t array }

  include
    Ds_intf.MAP
      with type scheme = S.t
       and type handle = S.handle
       and type 'v t := 'v t

  val locals_seed : int Atomic.t
  (** Seeds each new local's tower-height rng; one counter per functor
      application. Resetting it makes heights a function of the order in
      which locals are made. *)
end
