(** Scheme-generic protection helpers shared by the data structures:
    TryProtect (optimistic and pessimistic), the critical-section retry
    loop and the traversal trace hook. Every protection a structure makes
    goes through this module, the one place that knows how a step
    protects. *)

module Make (S : Smr.Smr_intf.S) : sig
  val uid_of_hdr : Smr_core.Mem.header -> int

  val trace_step :
    src:Smr_core.Mem.header -> validated:bool -> 'a Smr_core.Tagged.t -> unit
  (** Record one traversal step out of [src] (armed tracing only). *)

  val inline_store : bool
  (** [S.protect] is {!Smr.Slots.set} itself (HP, HP++, PEBR), so a step
      stores into the slot inline instead of calling through [S]. Decided
      once, when the functor is applied, by physical equality. *)

  val inline_valid : bool
  (** [S.protection_valid] is {!Smr.Slots.always_valid} (HP, HP++), so a
      step skips the validity call. *)

  val protect : S.guard -> Smr_core.Mem.header -> unit
  (** [S.protect], as an inline slot store under {!inline_store}. *)

  val protection_valid : S.handle -> bool
  (** [S.protection_valid], constant [true] under {!inline_valid}. *)

  val try_protect :
    src:Smr_core.Mem.header ->
    S.guard ->
    S.handle ->
    src_link:'a Smr_core.Link.t ->
    'a Smr_core.Tagged.t ->
    'a Smr_core.Tagged.safe
  (** TryProtect with under-approximating validation (paper Algorithm 3):
      fails only when [src_link] is invalidated or the thread was
      neutralized, returning {!Smr_core.Tagged.invalid}; otherwise returns
      [src_link]'s current value, chasing it if it moved. *)

  val protect_pessimistic :
    src:Smr_core.Mem.header ->
    S.guard ->
    S.handle ->
    src_link:'a Smr_core.Link.t ->
    'a Smr_core.Tagged.t ->
    'a Smr_core.Tagged.safe
  (** HP's over-approximation: protect, then validate that [src_link]
      still holds the record, untagged. Returns that value, or
      {!Smr_core.Tagged.invalid} when validation fails. *)

  val with_crit :
    S.handle ->
    Smr_core.Stats.t ->
    (unit -> [< `Done of 'a | `Prot | `Retry ]) ->
    'a
  (** Run an operation attempt inside a critical section, restarting on
      [`Prot] (counted as a protection failure) and [`Retry]. *)
end
