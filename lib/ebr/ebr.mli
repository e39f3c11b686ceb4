(** Epoch-based reclamation (Fraser/Harris; crossbeam-style).

    Threads bracket operations in critical sections ([crit_enter]/
    [crit_exit]); a global epoch advances only when every active thread has
    observed the current epoch, and garbage retired in epoch [e] is freed
    once the global epoch reaches [e + 2]. Per-pointer [protect] is a no-op
    ([needs_protection = false]); any traversal — including optimistic
    traversal of logically deleted chains — is safe inside a critical
    section.

    EBR is {e not robust}: a stalled critical section pins the epoch and the
    amount of unreclaimed garbage grows without bound (paper §2.4; measured
    in the robustness tests and Figure 11). *)

include Smr.Smr_intf.S

val defer : handle -> (unit -> unit) -> unit
(** Run a thunk after the current grace period (two epoch advances). Used by
    the reference-counting scheme to defer decrements; [retire] is
    [defer (free)]. *)
