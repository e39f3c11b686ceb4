(** Treiber stack; pop protects the top before dereferencing it and retires
    it with classic [retire]. Works with every scheme. *)

module Make (S : Smr.Smr_intf.S) : sig
  type 'v node = {
    mutable next : 'v node Smr_core.Link.cell;
    mutable hdr : Smr_core.Mem.cell;
    value : 'v;
  }

  type 'v t = { scheme : S.t; top : 'v node Smr_core.Link.t }
  type local

  val create : S.t -> 'v t
  val scheme : 'v t -> S.t
  val stats : 'v t -> Smr_core.Stats.t
  val make_local : S.handle -> local
  val clear_local : local -> unit
  val push : 'v t -> local -> 'v -> unit
  val pop : 'v t -> local -> 'v option
  val peek : 'v t -> local -> 'v option

  val to_list : 'v t -> 'v list
  (** Quiescent: the elements from top to bottom. *)

  val length : 'v t -> int
end
