(** Harris–Michael list: the HP-compatible list, which unlinks marked nodes
    during traversal, one node per unlink. Works with every scheme. *)

module Make (S : Smr.Smr_intf.S) : sig
  type 'v node = {
    mutable next : 'v node Smr_core.Link.cell;
    mutable hdr : Smr_core.Mem.cell;
    key : int;
    value : 'v;
  }

  type 'v t = { scheme : S.t; head : 'v node Smr_core.Link.t }

  include
    Ds_intf.MAP
      with type scheme = S.t
       and type handle = S.handle
       and type 'v t := 'v t
end
