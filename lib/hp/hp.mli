(** The original hazard pointers (Michael 2002/2004; paper Algorithm 2),
    with the asymmetric-fence optimization of §3.4 (fence costs are counted,
    not paid, on this SC-atomics runtime).

    Protection validation {e over-approximates} unreachability, so HP does
    not support optimistic traversal ([supports_optimistic = false]): data
    structures that follow links out of logically deleted nodes refuse to
    instantiate with this scheme, reproducing the "not applicable" cells of
    paper Table 2. *)

include Smr.Smr_intf.S

val reclaim : handle -> unit
(** Run a reclamation pass now. Exposed for tests. *)
