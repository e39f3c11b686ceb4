(** Heller et al. lazy list: lock-based updates, wait-free contains over an
    optimistic traversal, so HP is {!Ds_intf.MAP.unsupported}. *)

module Make (S : Smr.Smr_intf.S) : sig
  type 'v node = {
    mutable next : 'v node Smr_core.Link.cell;
    mutable hdr : Smr_core.Mem.cell;
    key : int;
    value : 'v;
    marked : bool Atomic.t;
    lock : Mutex.t;
  }

  type 'v t = {
    scheme : S.t;
    head_link : 'v node Smr_core.Link.t;
    head_lock : Mutex.t;
  }

  include
    Ds_intf.MAP
      with type scheme = S.t
       and type handle = S.handle
       and type 'v t := 'v t
end
