(** HP++: hazard pointers with optimistic traversal (the paper's
    contribution; Algorithms 3 and 5).

    HP++ extends hazard pointers so that traversals may follow links out of
    logically deleted nodes. Validation {e under-approximates}
    unreachability — a protection only fails when the source node has been
    {e invalidated}, which unlinkers do strictly {e after} physical deletion —
    and the unsafe window this opens is patched up by the unlinker:

    - it protects the unlinking {e frontier} with hazard pointers before the
      unlink CAS ({!try_unlink}), and
    - it invalidates {e all} unlinked nodes before any of them is retired,
      with a fence between invalidation and releasing the frontier
      protection ([DoInvalidation]).

    With [config.epoched_fence = true] (default) the fence protocol of
    Algorithm 5 is used: frontier hazard pointers are revoked lazily, tagged
    with a global fence epoch, piggybacking on other threads' heavy fences;
    a heavy fence is then only issued by [Reclaim]. With [false], Algorithm
    3's per-batch fence is used (the ablation in [bench/main.exe exp alg5]).

    The module satisfies {!Smr.Smr_intf.S}; it is a strict extension of the
    original HP (same [protect]/[retire] entry points), so data structures
    written against HP run unchanged (§4.2 "backward compatibility"). *)

include Smr.Smr_intf.S

val do_invalidation : handle -> unit
(** Run the deferred invalidation batch now (normally triggered every
    [invalidate_threshold] unlinks). Exposed for tests and ablations. *)

val reclaim : handle -> unit
(** Run a reclamation pass now (normally triggered every
    [reclaim_threshold] unlinks/retires). Exposed for tests and ablations. *)

val fence_epoch : t -> int
(** Current value of the global fence epoch (Algorithm 5). *)

val pending_unlinked : handle -> int
(** Blocks unlinked by this handle and not yet invalidated. *)

val pending_retired : handle -> int
(** Blocks invalidated by this handle and not yet reclaimed. *)
