(** Scheme-generic protection helpers shared by the data structures. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link
module Slots = Smr.Slots

module Trace = Obs.Trace

(* Bound here so the step's hook test is one load off this module's block
   plus the atomic read (see hook.mli). *)
let hook_flags = Fault.Hook.flags

module Make (S : Smr.Smr_intf.S) = struct
  (* The Step/Validation_fail trace uid of a source node: [Mem.phantom]
     stands for "no node" (the structure's root link), traced as -1. *)
  let uid_of_hdr src = if src == Mem.phantom then -1 else Mem.uid src

  (* A validated protection (the slot store survived validation) plus the
     traversal step it enables. The Step event records the tag bits actually
     read from [src_link]: a scheme or structure that wrongly proceeds past
     an invalidated link would record the invalid bit here, which is exactly
     what the trace-replay checker flags. *)
  let trace_step ~src ~validated l =
    if Trace.enabled () then begin
      let dst =
        match Tagged.shape l with
        | Tagged.Ptr ->
            let uid = Mem.uid (Tagged.header l) in
            if validated then Trace.emit Trace.Protect uid 0 0;
            uid
        | Tagged.Null -> -1
      in
      Trace.emit Trace.Step (uid_of_hdr src) dst (Tagged.tag l)
    end

  (* How a step protects, decided once, when the functor is applied. A
     scheme whose [protect] is [Slots.set] itself (HP, HP++, PEBR) gets
     the slot store inlined into the step; one whose [protection_valid] is
     [Slots.always_valid] (HP, HP++) gets no validity call at all. Any
     other [S] — a wrapper that counts or times the scheme's calls —
     keeps both calls, so it sees every protect a structure makes. *)
  let inline_store =
    S.needs_protection && Obj.repr S.protect == Obj.repr Slots.set

  let inline_valid =
    Obj.repr S.protection_valid == Obj.repr Slots.always_valid

  let inline_step = inline_store && inline_valid

  (* The one [guard -> slot] cast of lib/ds. The invariant that makes it
     sound: it is taken only under [inline_store], when [S.protect] is
     [Slots.set], so every guard [S] protects with is already the
     [Slots.slot] that [Slots.set] stores into. *)
  let[@inline] slot_of (g : S.guard) : Slots.slot = Obj.magic g

  let[@inline] protect guard hdr =
    if inline_store then Slots.set (slot_of guard) hdr else S.protect guard hdr

  let[@inline] protection_valid handle =
    inline_valid || S.protection_valid handle

  (* Paper Algorithm 3 TryProtect with under-approximating validation:
     protection only fails when [src_link] carries the invalidation bit (or,
     under PEBR, this thread was neutralized); logical-deletion tags are
     ignored, so optimistic traversal through deleted chains succeeds. If
     the link moved to a new target, chase it, announcing protection anew
     each time. Returns the current value of [src_link], validated — same
     target as requested, possibly retagged — or, on failure, the shared
     {!Tagged.invalid}, which carries no node; the caller must then recover,
     typically by restarting the operation. [src] is the header of the node
     [src_link] lives in ([Mem.phantom] for a root link), for the trace
     only. A target is protected as [Mem.of_node n], its embedded header.
     Allocates nothing.

     [try_protect] is one step. Under [inline_step], while the hook word is
     zero, it is the bare slot store, one re-read of [src_link] and the
     compare; otherwise [step_called] takes the same step through
     [protect] and [protection_valid], instrumented. A moved or
     invalidated link goes to [protect_moved], which continues from the
     value already re-read, so a step makes the same protect calls, trace
     events and fault-point hits on every path. *)
  let validation_fail ~src tag =
    Trace.emit Trace.Validation_fail (uid_of_hdr src) tag 0;
    Tagged.invalid

  (* The call path of one step, and the instrumented one: through
     [protect] and [protection_valid], with the trace. [protect_moved] is
     the cold path: [l] was re-read from [src_link] and is either
     invalidated or a new target, which it steps onto anew. *)
  let rec step_called ~src guard handle ~src_link expected =
    (match Tagged.shape expected with
    | Tagged.Ptr -> protect guard (Tagged.header expected)
    | Tagged.Null -> ());
    if not (protection_valid handle) then validation_fail ~src 0
    else
      let l = Link.get src_link in
      if Tagged.same_ptr l expected && not (Tagged.is_invalid l) then begin
        if Trace.enabled () then
          trace_step ~src ~validated:true l;
        Tagged.validated l
      end
      else protect_moved ~src guard handle ~src_link l

  and protect_moved ~src guard handle ~src_link l =
    if Tagged.is_invalid l then validation_fail ~src (Tagged.tag l)
    else step_called ~src guard handle ~src_link l

  (* Under [inline_step], one test of the hook word per step (hook.mli):
     while it is zero nothing traces, faults or yields, so the step is the
     bare slot store, the re-read and the compare, with no call on its
     path. Anything armed takes [step_called], which instruments it. *)
  let[@inline] try_protect ~src guard handle ~src_link expected =
    if not S.needs_protection then begin
      if Trace.enabled () then
        trace_step ~src ~validated:false expected;
      Tagged.validated expected
    end
    else if inline_step && Atomic.get hook_flags = 0 then begin
      (match Tagged.shape expected with
      | Tagged.Ptr ->
          Slots.set_disarmed (slot_of guard) (Tagged.header expected)
      | Tagged.Null -> ());
      let l = Link.get src_link in
      if Tagged.same_ptr l expected && not (Tagged.is_invalid l) then
        Tagged.validated l
      else protect_moved ~src guard handle ~src_link l
    end
    else step_called ~src guard handle ~src_link expected

  (* Over-approximating validation (original HP, paper §2.2): succeed only
     if [src_link] still holds exactly [expected]'s target with a clean tag;
     any change — including the source's logical deletion — fails. Returns
     like [try_protect]: the value re-read, or {!Tagged.invalid}. *)
  let protect_pessimistic ~src guard handle ~src_link expected =
    if not S.needs_protection then begin
      if Trace.enabled () then
        trace_step ~src ~validated:false expected;
      Tagged.validated expected
    end
    else begin
      (match Tagged.shape expected with
      | Tagged.Ptr -> protect guard (Tagged.header expected)
      | Tagged.Null -> ());
      if not (protection_valid handle) then validation_fail ~src 0
      else
        let l = Link.get src_link in
        if Tagged.same_ptr l expected && Tagged.tag l = 0 then begin
          if Trace.enabled () then
            trace_step ~src ~validated:true expected;
          Tagged.validated l
        end
        else validation_fail ~src 0
    end

  (* Run [body] inside a critical section until it completes. [`Prot] is a
     protection failure (counted, paper §4.3); [`Retry] is ordinary CAS
     contention. Both refresh the critical section so a long string of
     retries cannot pin the epoch, and back off exponentially so a burst of
     contention does not degenerate into a CAS storm. An operation that
     completes on its first attempt allocates nothing here: the backoff
     state is created on the first restart, and the restart loop takes
     everything it needs as arguments instead of closing over it. *)
  let rec restart handle stats body backoff r =
    (match r with
    | `Prot -> Smr_core.Stats.on_protection_failure stats
    | `Retry -> ());
    S.crit_refresh handle;
    Smr_core.Backoff.once backoff;
    match body () with
    | `Done result ->
        S.crit_exit handle;
        result
    | (`Prot | `Retry) as r -> restart handle stats body backoff r

  let with_crit handle stats body =
    S.crit_enter handle;
    match body () with
    | `Done result ->
        S.crit_exit handle;
        result
    | (`Prot | `Retry) as r ->
        restart handle stats body (Smr_core.Backoff.create ()) r
end
