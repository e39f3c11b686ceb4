(** Hazard-pointer slot machinery shared by HP, HP++ and PEBR.

    A {e slot} is a single-writer multi-reader cell announcing protection of
    one block by holding its uid (an immediate, [-1] when empty). Slots live
    in per-handle chunks registered in a global chunk list, so reclaimers
    can always scan every published slot (the paper's
    [hazards: ConcurrentList<HazptrRecord>]). A chunk whose handle
    unregisters is cleared, marked inactive (scans skip it) and parked for
    reuse by the next handle, so the registry stays bounded under handle
    churn.

    Reclaimers snapshot the protected uids into a reusable sorted {!scan}
    buffer and membership-test retired uids by binary search — amortized
    O(1) per retired block and allocation-free once the buffer has grown to
    its steady-state size. *)

type registry
type local
type slot

val create : unit -> registry

val register : registry -> local
(** Create (or reuse) this thread's slot block. Single-threaded use per
    [local]. *)

val unregister : local -> unit
(** Clear every slot owned by this handle, deactivate its chunks and park
    them for reuse. The caller must have released all protections first. *)

val reap : local -> unit
(** {!unregister} run by a {e surviving} thread over a {e dead} handle's
    slots (crash recovery). Sound only once the owner is gone and its
    pending invalidation work has been completed on its behalf; see the
    schemes' [report_crashed]. *)

val dom : local -> int
(** The domain that registered this handle (stamped on Crash trace
    events). *)

val acquire : local -> slot
(** Get an empty slot (paper's MakeHazptr). *)

val set : slot -> Smr_core.Mem.header -> unit
(** Announce protection of a block: a plain store of its uid, an
    immediate. The caller's next load (the validation) is the light fence;
    a reclaimer must issue {!Smr_core.Fence.heavy} before {!scan_snapshot}
    for the store to be guaranteed visible to it. Inlined: one test of the
    {!Fault.Hook} word, then the store while the word is zero; when any
    concern is armed, an out-of-line copy emits [Unprotect], stores and
    hits [Fault.Protect], in that order. *)

val set_disarmed : slot -> Smr_core.Mem.header -> unit
(** {!set} for a caller that has itself found the {!Fault.Hook} word zero
    (one test per site): the store alone. A traversal step tests the word
    once for its whole body ([Ds_common.try_protect]). *)

val clear : slot -> unit
(** Withdraw the slot's protection; the same one-test shape as {!set}. *)

val always_valid : 'a -> bool
(** Always [true]: the [protection_valid] of a scheme that never withdraws
    a thread's protection (HP, HP++). Schemes bind this one function so a
    data structure can tell by physical equality that the validity call
    can be skipped ([Ds_common]). *)

val release : local -> slot -> unit
(** Clear the slot and return it to the owner's free list. *)

(** {1 The hazard scan} *)

type scan
(** A reusable scratch buffer for hazard snapshots; one per reclaiming
    handle. *)

val scan_create : unit -> scan

val scan_snapshot : registry -> scan -> unit
(** Snapshot the uids of all currently protected blocks into [scan] and
    sort them. The slots are read plainly: call it only after a
    {!Smr_core.Fence.heavy} issued after the blocks to be tested were
    unlinked. Linear in the number of active slots; allocates only when
    the buffer must grow. *)

val scan_mem : scan -> int -> bool
(** Binary search of the last snapshot. *)

val scan_size : scan -> int
(** Number of protected uids captured by the last snapshot. *)

val total_slots : registry -> int
