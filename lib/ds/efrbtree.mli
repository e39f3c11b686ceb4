(** Ellen et al. non-blocking external BST with helping through update
    descriptors (IFlag/DFlag/Mark). Descriptor cycles rule out reference
    counting (paper footnote 12), so RC is {!Ds_intf.MAP.unsupported}. *)

module Make (S : Smr.Smr_intf.S) : sig
  type kind = Leaf | Internal
  type state = Clean | IFlag | DFlag | Mark

  type 'v update = { state : state; info : 'v info option; gen : int }
  and 'v info = I of 'v iinfo | D of 'v dinfo

  and 'v iinfo = {
    i_p : 'v node;
    i_l : 'v node;
    i_l_rec : 'v node Smr_core.Tagged.t;
    i_l_link : 'v node Smr_core.Link.t;
    i_new_internal : 'v node;
  }

  and 'v dinfo = {
    d_gp : 'v node;
    d_p : 'v node;
    d_l : 'v node;
    d_pupdate : 'v update;
    d_gp_rec : 'v node Smr_core.Tagged.t;
    d_gp_link : 'v node Smr_core.Link.t;
  }

  and 'v node = {
    key : int;
    mutable hdr : Smr_core.Mem.cell;
    value : 'v option;
    kind : kind;
    left : 'v node Smr_core.Link.t;
    right : 'v node Smr_core.Link.t;
    update : 'v update Atomic.t;
  }

  type 'v t = {
    scheme : S.t;
    root : 'v node;
    s_rec : 'v node Smr_core.Tagged.safe;
  }

  include
    Ds_intf.MAP
      with type scheme = S.t
       and type handle = S.handle
       and type 'v t := 'v t
end
