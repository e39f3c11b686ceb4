(** The paper's asymmetric fences (§2.2, Algorithm 5).

    A hazard protection is a plain store of the block's uid into a slot,
    followed in program order by the validating load of the source link.
    That program order is the {e light} fence: it costs nothing at run
    time. Reclaimers pay the {e heavy} fence before each hazard snapshot:
    [membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)] forces every other
    running thread of the process through a full barrier, so every slot
    store issued before the fence is visible to the snapshot that follows
    it.

    The argument needs x86-64's TSO store order (a store can be delayed
    past a later load only through the store buffer, which the barrier
    drains) and a compiler that keeps the slot store before the validating
    load. Linux x86-64 is the only target. *)

val heavy : Stats.t -> unit
(** Issue one heavy fence and count it in [stats] ({!Stats.heavy_fences}
    therefore equals the fences actually issued). The caller waits for an
    interrupt to reach every other running thread of the process, and each
    of those threads pays for it: microseconds on a virtual machine. *)

