(** PEBR — pointer- and epoch-based reclamation (Kang & Jung, PLDI 2020),
    simplified but behaviour-preserving.

    Threads pin epochs like EBR, but a reclaimer under pressure {e advances
    the epoch anyway}, {e neutralizing} the laggards: their blanket epoch
    protection is withdrawn and only their explicitly shielded pointers
    (HP-style slots) stay safe. A neutralized thread discovers it at its next
    protection validation ([protection_valid] returns [false]) and must
    restart from a safe point ([crit_refresh]).

    Neutralization is coarse-grained: when a reclaimer's bag exceeds
    [config.neutralize_lag * reclaim_threshold] blocks, {e every} lagging
    critical section is ejected whether or not it was going to touch
    contested memory — which is why long-running read
    operations collapse under heavy reclamation (paper Figure 10), the
    behaviour this implementation exists to reproduce. Robust: garbage is
    bounded by shields + the neutralization threshold (paper Table 1). *)

include Smr.Smr_intf.S

val neutralized : handle -> bool
