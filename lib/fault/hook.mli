(** One atomic word gating every instrumentation concern on the SMR hot
    paths.

    The schemes, [Mem], [Slots] and the data structures carry guarded hooks
    of the shape [if X.enabled () then X.slow_path ...] at the protocol
    points where tracing records events, fault plans fire, and the
    deterministic scheduler ([lib/check]) switches logical threads. Before
    this module each concern kept its own [Atomic.t bool], so a site
    combining tracing and faults paid two loads; a third concern would have
    made it three.

    Now all three share {e one} flags word: bit 0 = tracing enabled, bit 1 =
    a fault plan armed, bit 2 = the cooperative scheduler installed.
    [Obs.Trace.enabled]/[Fault.enabled] read this word with a mask, so a
    fully disarmed hook is still exactly one atomic load and one branch.

    One test per site: a hot site that serves several concerns tests the
    whole word once ([Atomic.get flags = 0]) and sends any armed state to
    an [[@inline never]] instrumented copy, which then consults each
    concern in the usual order. [Slots.set] and [Slots.clear] have this
    shape, and so does the traversal step ([Ds_common.try_protect]):
    disarmed, a step is the load, the compare, the slot store and the
    link re-read, with no call on its path.

    The scheduler piggybacks on the {e existing} guards: when [sched] is
    set, [Obs.Trace.emit] and [Fault.hit] call {!yield} before doing their
    own (bit-gated) work. Crucially the yield fires on the sched bit alone,
    independent of whether tracing or a fault plan is also on — so a given
    program takes the {e same} sequence of yield points whether or not the
    tracer records, which is what makes schedule trails comparable across
    instrumented and bare runs. *)

val trace_bit : int
val fault_bit : int
val sched_bit : int

val flags : int Atomic.t
(** The word itself. Hot guards bind this to a module-local at init
    ([let flags = Hook.flags]) so the disarmed check is one load off their
    own module block plus the atomic read — going through {!word} on every
    call adds a cross-module indirection that costs ~40% on the
    emit-disabled hotpath row. Read-only for callers: mutate through
    {!set_bit}/{!clear_bit}. *)

val word : unit -> int
(** One atomic load of the combined flags word. *)

val any : unit -> bool
(** [word () <> 0]. *)

val set_bit : int -> unit
val clear_bit : int -> unit

(** {1 Yield sites}

    Sites are small ints namespaced by concern: a fault protocol point
    [p] yields as [site_fault_base + Fault.point_code p], a trace event of
    kind [k] as [site_trace_base + Obs.Trace.kind_code k]. *)

val site_fault_base : int
val site_trace_base : int

val yield : int -> unit
(** Call the installed scheduler callback. Callers must gate on the sched
    bit; calling with no scheduler installed is a harmless no-op. Never
    inlined: the disarmed fast path should not carry its frame. *)

val install_sched : (int -> unit) -> unit
(** Install the scheduler callback and set the sched bit. The callback runs
    on whichever domain hits an instrumented site; it must itself decide
    (e.g. via domain-local state) whether the caller is a scheduled logical
    thread or a bystander. *)

val uninstall_sched : unit -> unit
