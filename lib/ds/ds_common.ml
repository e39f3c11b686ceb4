(** Scheme-generic protection helpers shared by the data structures. *)

module Mem = Smr_core.Mem
module Tagged = Smr_core.Tagged
module Link = Smr_core.Link

module Trace = Obs.Trace

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
            let uid = Mem.uid (Mem.of_node (Tagged.node l)) in
            if validated then Trace.emit Trace.Protect uid 0 0;
            uid
        | Tagged.Null -> -1
      in
      Trace.emit Trace.Step (uid_of_hdr src) dst (Tagged.tag l)
    end

  (* Paper Algorithm 3 TryProtect with under-approximating validation:
     protection only fails when [src_link] carries the invalidation bit (or,
     under PEBR, this thread was neutralized); logical-deletion tags are
     ignored, so optimistic traversal through deleted chains succeeds. If
     the link moved to a new target, chase it, announcing protection anew
     each time. Returns the current value of [src_link] — same target as
     requested, possibly retagged — or, on failure, the shared
     {!Tagged.invalid}, which carries no node; the caller must then recover,
     typically by restarting the operation. [src] is the header of the node
     [src_link] lives in ([Mem.phantom] for a root link), for the trace
     only. A target is protected as [Mem.of_node n], its embedded header.
     Allocates nothing.

     [try_protect] is the fast path of one step: protect, scheme validity,
     one re-read of [src_link], same target. Everything else goes to
     [protect_moved], which continues from the value already re-read, so a
     step makes the same protect calls and trace events either way. *)
  let validation_fail ~src tag =
    Trace.emit Trace.Validation_fail (uid_of_hdr src) tag 0;
    Tagged.invalid

  (* Cold path: [l] was re-read from [src_link] and is either invalidated
     or a new target. *)
  let rec protect_moved ~src guard handle ~src_link l =
    if Tagged.is_invalid l then validation_fail ~src (Tagged.tag l)
    else begin
      (match Tagged.shape l with
      | Tagged.Ptr -> S.protect guard (Mem.of_node (Tagged.node l))
      | Tagged.Null -> ());
      if not (S.protection_valid handle) then validation_fail ~src 0
      else
        let l' = Link.get src_link in
        if Tagged.same_ptr l' l && not (Tagged.is_invalid l') then begin
          if Trace.enabled () then
            trace_step ~src ~validated:true l';
          l'
        end
        else protect_moved ~src guard handle ~src_link l'
    end

  let[@inline] try_protect ~src guard handle ~src_link expected =
    if not S.needs_protection then begin
      if Trace.enabled () then
        trace_step ~src ~validated:false expected;
      expected
    end
    else begin
      (match Tagged.shape expected with
      | Tagged.Ptr -> S.protect guard (Mem.of_node (Tagged.node expected))
      | Tagged.Null -> ());
      if not (S.protection_valid handle) then validation_fail ~src 0
      else
        let l = Link.get src_link in
        if Tagged.same_ptr l expected && not (Tagged.is_invalid l) then begin
          if Trace.enabled () then
            trace_step ~src ~validated:true l;
          l
        end
        else protect_moved ~src guard handle ~src_link l
    end

  (* Over-approximating validation (original HP, paper §2.2): succeed only
     if [src_link] still holds exactly [expected]'s target with a clean tag;
     any change — including the source's logical deletion — fails. *)
  let protect_pessimistic ~src guard handle ~src_link expected =
    if not S.needs_protection then begin
      if Trace.enabled () then
        trace_step ~src ~validated:false expected;
      true
    end
    else begin
      (match Tagged.shape expected with
      | Tagged.Ptr -> S.protect guard (Mem.of_node (Tagged.node expected))
      | Tagged.Null -> ());
      if
        S.protection_valid handle
        &&
        let l = Link.get src_link in
        Tagged.same_ptr l expected && Tagged.tag l = 0
      then begin
        if Trace.enabled () then
          trace_step ~src ~validated:true expected;
        true
      end
      else begin
        Trace.emit Trace.Validation_fail (uid_of_hdr src) 0 0;
        false
      end
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
