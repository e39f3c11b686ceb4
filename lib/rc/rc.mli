(** RC — concurrent deferred reference counting, CDRC's EBR flavour
    (Anderson et al., PLDI 2022), simplified.

    Each block carries an incoming-link counter in its header word
    ({!Smr_core.Mem.incr_ref}/{!Smr_core.Mem.decr_ref}, born 1). Readers are protected by EBR critical sections (CDRC's deferred
    snapshots); unlinking a block defers the decrement of its counter
    through EBR, and a block whose counter reaches zero is destroyed,
    cascading decrements to the children it still points to
    ([retire_with_children]). Structures that share subobjects (Bonsai)
    announce extra incoming links with [incr_ref]; that per-link-update
    counter traffic is exactly what makes RC slow where link updates are
    plentiful (paper §5, Bonsai discussion).

    The paper notes the "retired but unreclaimed" metric is not well-defined
    for reference counting (its Figure 11 footnote); we report deferred
    decrements as retired and completed destructions as freed, which tracks
    the underlying EBR as the paper's appendix observes. *)

include Smr.Smr_intf.S
