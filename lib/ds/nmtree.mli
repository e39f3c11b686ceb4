(** Natarajan–Mittal external BST: edge flagging, with a whole tagged path
    spliced and retired per remove. Its traversal ignores in-progress
    deletions, so HP is {!Ds_intf.MAP.unsupported}. Keys must be below
    [max_int - 1] (the sentinels). *)

module Make (S : Smr.Smr_intf.S) : sig
  type kind = Leaf | Internal

  type 'v node = {
    key : int;
    mutable hdr : Smr_core.Mem.cell;
    value : 'v option;
    kind : kind;
    left : 'v node Smr_core.Link.t;
    right : 'v node Smr_core.Link.t;
  }

  type 'v t = { scheme : S.t; root : 'v node; s : 'v node }

  include
    Ds_intf.MAP
      with type scheme = S.t
       and type handle = S.handle
       and type 'v t := 'v t

  val flag_bit : int
  (** The edge bit marking a leaf edge whose deletion is pending. *)

  type 'v seek_record = {
    sr_ancestor : 'v node;
    sr_ancestor_link : 'v node Smr_core.Link.t;
    sr_ancestor_rec : 'v node Smr_core.Tagged.t;
    sr_successor : 'v node;
    sr_parent : 'v node;
    sr_parent_link : 'v node Smr_core.Link.t;
    sr_parent_rec : 'v node Smr_core.Tagged.t;
    sr_leaf : 'v node;
  }

  val seek :
    'v t -> local -> int -> [ `Done of 'v seek_record | `Prot | `Retry ]
  (** One attempt of the paper's Seek: the access path to the leaf where
      the key is or would be. *)
end
