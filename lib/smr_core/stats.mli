(** Allocation/retirement/reclamation accounting for one reclamation domain.

    This is the measurement substrate for the paper's memory-footprint
    figures: peak and instantaneous counts of blocks that are retired but not
    yet reclaimed (Figures 11, 15–17, 21–23), live blocks (Figures 18–20),
    and heavy-fence counts (Algorithm 5 ablation). All counters are atomic
    and safe to update from any domain.

    Counters are {e striped}: each domain updates its own cache-line-padded
    stripe and readings sum the stripes, so the event hooks are uncontended
    stores on the hot path. Peaks are not tracked per event; they are folded
    in whenever a reading is taken and at {!note_peaks}, which reclamation
    schemes call on entry to a reclaim pass — the moment the garbage backlog
    is at its local maximum. Peaks are therefore monotone upper bounds of
    every value this module reports, and exact at reclaim boundaries. *)

type t

val create : unit -> t

val reset : t -> unit
(** Reset all counters and peaks to zero. Only call at quiescence. *)

(** {1 Events}

    Only {!Mem} calls [on_alloc], [on_retire], [on_free] and [on_discard],
    next to the trace event of the same transition, so these counters are a
    projection of the event stream. *)

val on_alloc : t -> unit
(** A block header was allocated. *)

val on_retire : t -> unit
(** A block became garbage: unlinked/retired but not yet reclaimed. *)

val on_free : t -> unit
(** A retired block was reclaimed. *)

val on_discard : t -> unit
(** A freshly allocated block was dropped before ever being linked (e.g. a
    failed insert of a duplicate key): counts as freed without passing
    through retirement. *)

val on_heavy_fence : t -> unit
(** Count one heavy fence. Only {!Fence.heavy} calls this, right after
    issuing the fence, so the count equals the fences issued. *)

val on_protection_failure : t -> unit
(** One operation attempt was restarted because a protection failed
    ([Ds_common.with_crit]'s [`Prot]). This counts restarted attempts, not
    failed steps: the trace's [Validation_fail] events mark each failed
    validation step, and the two counts need not agree. *)

val note_peaks : t -> unit
(** Fold the current unreclaimed/live counts into the peaks. Schemes call
    this on entry to a reclamation pass (the backlog's local maximum);
    samplers get the same folding for free through {!unreclaimed}/{!live}. *)

(** {1 Readings} *)

val allocated : t -> int
val freed : t -> int
val live : t -> int
(** Blocks allocated and not yet freed (live + garbage). *)

val unreclaimed : t -> int
(** Blocks retired and not yet freed: the robustness metric. *)

val peak_unreclaimed : t -> int
val peak_live : t -> int
val retired_total : t -> int
val heavy_fences : t -> int
val protection_failures : t -> int

val pp : Format.formatter -> t -> unit
