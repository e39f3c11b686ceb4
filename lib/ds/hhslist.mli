(** Harris list with the wait-free get of Herlihy–Shavit ("HHSList"),
    protected as in paper Algorithm 4. Its traversal walks logically
    deleted chains, so schemes without optimistic-traversal support (HP)
    are {!Ds_intf.MAP.unsupported}. *)

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

  val search_attempt :
    'v t ->
    local ->
    int ->
    [ `Done of
      bool
      * 'v node Smr_core.Link.t
      * 'v node Smr_core.Tagged.t
      * 'v node option
    | `Prot
    | `Retry ]
  (** One attempt of paper Algorithm 4's TrySearch, unlinking any deleted
      chain it meets: [`Done (found, prev_link, expected, cur)] leaves
      [prev_link] holding [expected], whose target [cur] is the first
      undeleted node with a key >= the one sought. *)
end
