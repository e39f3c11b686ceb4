(** The reclamation pipeline shared by every retire-bag scheme (HP, HP++,
    EBR, PEBR).

    In the paper, Reclaim works the same way in every scheme: take a retire
    list, apply a "safe to free" test, free what passes. Only the test
    differs. This module owns everything around that test — the per-handle
    retire bag and its handoff swap, the background {!Collector} with its
    mutator assist and inline fallback, the collector-side drain fold,
    orphan adoption, shutdown with pending-bag salvage, and the collector's
    introspection. A scheme keeps its protection protocol and supplies its
    passes: the inline pass over a handle's bag (which calls {!begin_pass}
    first) and the drain pass over the collector's pending bag, each paying
    its own fence or epoch advance.

    Two rules are fixed here, once for all schemes:
    - {b handoff grain}: async mode hands a bag over every
      [min reclaim_threshold (max 16 (reclaim_threshold / 8))] retires;
    - {b fallback}: when the ring will not take the bag (full, collector
      stalled or dead), the inline pass runs once [reclaim_threshold]
      entries have been pushed since the handle's last pass or handoff —
      a pass counter, never the bag length, which unripe survivors keep
      high after every pass (DESIGN §13, the survivor ratchet). *)

(** A scheme's retire-bag element. *)
module type ENTRY = sig
  type t

  val dummy : t
  (** Filler for unused bag capacity. *)

  val salvage : ((t -> int) * (t -> bool)) option
  (** [Some (uid, skip)]: a bag torn by a mid-filter kill is compacted with
      {!Retire_bag.salvage} before it is donated. [None]: bags are donated
      verbatim — the scheme never tears one (EBR's closures carry no uid to
      deduplicate by). *)
end

module Header : ENTRY with type t = Smr_core.Mem.header
(** Bare retired headers (HP, HP++): salvage deduplicates by uid and drops
    freed blocks and the phantom filler. *)

val skip_header : Smr_core.Mem.header -> bool
(** The salvage rejection test of {!Header}: phantom filler or already
    freed. *)

val hazard_pass :
  Smr_core.Stats.t ->
  Slots.registry ->
  Slots.scan ->
  ?ripe:('e -> bool) ->
  header:('e -> Smr_core.Mem.header) ->
  'e Retire_bag.t ->
  unit
(** The hazard scan-and-free pass of HP, HP++ and PEBR: snapshot the slots
    into [scan], free ({!Smr_core.Mem.free_mark}) every entry that is
    [ripe] (default: all) and whose block no slot protects, keep the rest,
    and emit one [Reclaim_pass] event (freed, snapshot size). The caller
    pays its fence first ({!Smr_core.Fence.heavy}, or HP++'s FenceEpoch). *)

val unlink_then_retire :
  ('h -> Smr_core.Mem.header -> unit) ->
  'h ->
  frontier:'f ->
  do_unlink:(unit -> 'n list option) ->
  node_header:('n -> Smr_core.Mem.header) ->
  invalidate:'i ->
  bool
(** [try_unlink] for the schemes that need no patch-up (HP, EBR, PEBR,
    RC): run [do_unlink], then [retire] every unlinked node. *)

module Make (E : ENTRY) : sig
  type t
  (** Shared pipeline state of one scheme instance. *)

  type local
  (** One handle's retire bag plus its fallback pass counter. Single-owner:
      touched only by the owning domain. *)

  val create : Smr_intf.config -> Smr_core.Stats.t -> t
  (** No collector yet: {!start} spawns it. *)

  val start :
    t ->
    ?on_handoff:(unit -> unit) ->
    drain:(E.t Retire_bag.t -> unit) ->
    unit ->
    unit
  (** Spawn the collector domain when [config.async_reclaim] is set (a no-op
      otherwise). Call once, from the scheme's [create], before the scheme
      state escapes. [drain bag] is the scheme's collector-side pass: it
      runs on the collector domain over the pending bag, after handed-off
      bags and orphans were folded in and peaks noted, and must filter
      [bag] in place. [on_handoff] (default: nothing) runs on the mutator
      after every successful handoff and every refused offer — the epoch
      schemes' [try_advance], which keeps the epoch ticking at handoff
      cadence. *)

  val threshold : t -> int
  (** Crossings of this count trigger {!reclaim_or_handoff}: the handoff
      grain in async mode, [reclaim_threshold] inline. *)

  val register : t -> local
  val bag : local -> E.t Retire_bag.t
  val length : local -> int

  val push : local -> E.t -> unit
  (** Add one entry to the handle's bag and count it towards the fallback. *)

  val begin_pass : t -> local -> unit
  (** Prologue of every inline pass: note the garbage peak, fold donated
      bags into the handle's own, restart the fallback count. *)

  val reclaim_or_handoff : t -> local -> pass:('h -> unit) -> 'h -> unit
  (** The bag crossed {!threshold}. Inline mode: [pass h]. Async mode: a
      collector with two bags already queued is behind ({!Collector.late}),
      so the mutator absorbs the queue and runs [pass h] itself; otherwise
      a bag of at most twice the grain is offered and swapped for a
      recycled empty one; when the offer fails or the collector is dead,
      [pass h] runs over the absorbed queue once the fallback count reaches
      [reclaim_threshold]. *)

  val donate : t -> local -> unit
  (** Hand the handle's bag to the orphanage (unregister). *)

  val report_crashed : t -> local -> unit
  (** Salvage a possibly torn bag (per {!ENTRY.salvage}) and donate it. *)

  val shutdown : t -> unit
  (** Stop the collector (see {!Collector.shutdown}); queued bags and the
      salvaged pending bag go to the orphanage. Idempotent. *)

  val collector_stats : t -> Collector.stats option
end
