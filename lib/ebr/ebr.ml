module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Orphanage = Smr.Orphanage
module Retire_bag = Smr.Retire_bag
module Collector = Smr.Collector
module Trace = Obs.Trace

let name = "EBR"
let robust = false
let supports_optimistic = true
let counts_references = false
let needs_protection = false

(* A participant's presence word: 0 when quiescent, [epoch * 2 + 1] when
   inside a critical section pinned at [epoch]. One word so that enter/exit
   are single SC stores. *)
let quiescent = 0
let pinned_at epoch = (epoch lsl 1) lor 1
let is_pinned status = status land 1 = 1
let pinned_epoch status = status lsr 1

type entry = int * (unit -> unit)

type t = {
  stats : Stats.t;
  config : Smr.Smr_intf.config;
  global_epoch : int Atomic.t;
  participants : participant list Atomic.t;
  orphans : entry Orphanage.t;
  (* Adaptive defer threshold: fixed at [config.reclaim_threshold] in
     inline mode, retuned by the collector from observed garbage. *)
  adaptive : int Atomic.t;
  (* Collector-domain-private accumulation; see lib/hp/hp.ml. *)
  pending : entry Retire_bag.t;
  (* smr-lint: allow R3 — written once in [create] before [t] escapes; read-only afterwards *)
  mutable collector : entry Retire_bag.t Collector.t option;
}

and participant = { status : int Atomic.t; alive : bool Atomic.t }

type handle = {
  shared : t;
  me : participant;
  dom : int; (* registering domain, stamped on Crash trace events *)
  (* Single-owner: swaps only on the owning domain's handoff path. *)
  mutable bag : entry Retire_bag.t;
  mutable defers_since_collect : int;
  (* Defers since the last event that covered this handle's garbage — an
     inline pass or a successful handoff. Gates the async fallback pass:
     bag {e length} would ratchet (unripe survivors keep it high after
     every pass), driving scans denser than the inline cadence. *)
  mutable defers_since_pass : int;
}

type guard = unit

let entry_dummy : entry = (0, ignore)
let stats t = t.stats

let rec push_participant t p =
  let cur = Atomic.get t.participants in
  if not (Atomic.compare_and_set t.participants cur (p :: cur)) then
    push_participant t p

let global_epoch t = Atomic.get t.global_epoch

let crit_enter h =
  Atomic.set h.me.status (pinned_at (Atomic.get h.shared.global_epoch));
  (* Crash window: the critical section is pinned. A kill leaves this
     participant pinning the epoch forever (EBR's non-robustness) until
     report_crashed marks it dead; a stall parks the victim pinned. *)
  if Fault.enabled () then Fault.hit Fault.Crit

let crit_exit h = Atomic.set h.me.status quiescent
let crit_refresh h = crit_enter h

let guard _ = ()
let protect () _ = ()
let release () = ()
let protection_valid _ = true

(* Advance the global epoch iff every live pinned participant has observed
   the current one. A stalled critical section therefore pins the epoch:
   this is exactly EBR's non-robustness. Dead participants encountered along
   the way are pruned from the list (best-effort CAS) instead of being
   re-filtered on every future attempt. *)
let try_advance t =
  let epoch = Atomic.get t.global_epoch in
  let ps = Atomic.get t.participants in
  let all_current = ref true and any_dead = ref false in
  List.iter
    (fun p ->
      if not (Atomic.get p.alive) then any_dead := true
      else
        let s = Atomic.get p.status in
        if is_pinned s && pinned_epoch s <> epoch then all_current := false)
    ps;
  if !any_dead then begin
    let pruned = List.filter (fun p -> Atomic.get p.alive) ps in
    (* Losing the race (a concurrent register) just postpones the pruning
       to the next advance attempt. *)
    ignore (Atomic.compare_and_set t.participants ps pruned)
  end;
  if !all_current && Atomic.compare_and_set t.global_epoch epoch (epoch + 1)
  then Trace.emit Trace.Epoch_advance (-1) (epoch + 1) 0

(* Free every entry whose grace period has passed. Shared by the inline
   pass and the collector drain; the caller has adopted orphans already. *)
let free_ripe t bag =
  let epoch = Atomic.get t.global_epoch in
  let before = Retire_bag.length bag in
  Retire_bag.filter_in_place
    (fun (e, thunk) ->
      if e + 2 <= epoch then begin
        thunk ();
        false
      end
      else true)
    bag;
  if Trace.enabled () then
    Trace.emit Trace.Reclaim_pass (-1) (before - Retire_bag.length bag) epoch

let collect h =
  let t = h.shared in
  (* Crash window, deliberately placed BEFORE the filter below: EBR bags
     hold (epoch, thunk) pairs, and a bag torn mid-filter_in_place cannot
     be salvaged — closures carry no uid to dedup by and no freed-state to
     skip on. Killing at the pass entry keeps the bag consistent, so
     report_crashed can adopt it verbatim. (HP/HP++/PEBR, whose bags hold
     inspectable headers, take the harder mid-filter kill instead.) *)
  if Fault.enabled () then Fault.hit Fault.Reclaim;
  h.defers_since_collect <- 0;
  h.defers_since_pass <- 0;
  Stats.note_peaks t.stats;
  try_advance t;
  Orphanage.adopt_into t.orphans ~dst:h.bag;
  free_ripe t h.bag

(* Collector drain: fold handed-off bags and orphans into [t.pending],
   advance the epoch once for the whole batch, free what is ripe. No fault
   point inside the filter for the same tearing reason as [collect]; the
   [Fault.Collector] point at the loop top covers collector crashes, where
   the pending bag is between cycles and hence consistent. *)
let drain t bags n =
  for i = 0 to n - 1 do
    Retire_bag.transfer ~src:bags.(i) ~dst:t.pending
  done;
  Orphanage.adopt_into t.orphans ~dst:t.pending;
  if not (Retire_bag.is_empty t.pending) then begin
    Stats.note_peaks t.stats;
    try_advance t;
    free_ripe t t.pending
  end;
  let left = Retire_bag.length t.pending in
  if Trace.enabled () then Trace.emit Trace.Drain (-1) n left;
  let garbage = Stats.unreclaimed t.stats in
  let cur = Atomic.get t.adaptive in
  let next =
    (* the handoff grain is pinned: a bigger batch would amortize the
       snapshot only slightly better, but every queued bag is unreclaimed
       garbage, and growing the grain also widens the ring and drain-batch
       terms of the peak — own-bag + queued-ring must fit the inline peak
       envelope. The clamp still guards the policy arithmetic. *)
    Collector.adapt_threshold ~cur
      ~lo:(max 16 (t.config.reclaim_threshold / 8))
      ~hi:(max 16 (t.config.reclaim_threshold / 8))
      ~pending:garbage
  in
  if next <> cur then begin
    Atomic.set t.adaptive next;
    if Trace.enabled () then Trace.emit Trace.Adapt (-1) next garbage
  end;
  left

let create ?(config = Smr.Smr_intf.default_config) () =
  let t =
    {
      stats = Stats.create ();
      config;
      global_epoch = Atomic.make 0;
      participants = Atomic.make [];
      orphans = Orphanage.create ();
      adaptive =
        (* async mode starts at the low bound: hand off small bags early
           and often (a ring push costs nanoseconds), so queued garbage
           stays near the inline peak; the drain-side policy grows the
           batch only while garbage stays low *)
        Atomic.make
          (if config.async_reclaim then
             min config.reclaim_threshold
               (max 16 (config.reclaim_threshold / 8))
           else config.reclaim_threshold);
      pending = Retire_bag.create entry_dummy;
      collector = None;
    }
  in
  if config.async_reclaim then
    t.collector <-
      Some
        (Collector.spawn ~capacity:config.handoff_capacity ~length:Retire_bag.length
           ~drain:(drain t)
           ~dummy:(Retire_bag.create ~capacity:1 entry_dummy)
           ());
  t

let register shared =
  let me = { status = Atomic.make quiescent; alive = Atomic.make true } in
  push_participant shared me;
  {
    shared;
    me;
    dom = (Domain.self () :> int);
    bag =
      Retire_bag.create ~capacity:(2 * shared.config.reclaim_threshold)
        entry_dummy;
    defers_since_collect = 0;
    defers_since_pass = 0;
  }

(* Threshold crossed: hand the full bag to the collector (taking a
   recycled empty one back) or keep accumulating until the configured
   baseline before paying the inline pass — a starved collector degrades
   this path to exactly the inline cadence, never a denser one. *)
(* Fold every queued bag into [dst] so the caller's imminent pass covers
   them too: the ring drains even when the collector is starved of cpu or
   dead, pinning async peak garbage near the inline envelope. *)
let absorb_queued c ~dst =
  let rec go () =
    match Collector.steal c with
    | Some b ->
        Retire_bag.transfer ~src:b ~dst;
        Collector.recycle c b;
        go ()
    | None -> ()
  in
  go ()

let collect_or_handoff h =
  let t = h.shared in
  let baseline = t.config.reclaim_threshold in
  match t.collector with
  | Some c when Collector.running c ->
      let full = h.bag in
      let len = Retire_bag.length full in
      h.defers_since_collect <- 0;
      (* Only small bags enter the ring. A bag that grew toward baseline
         during a ring-full spell — or that carries unripe epoch survivors
         after an inline pass — would park a near-baseline slug of garbage
         in the queue behind a starved collector (one ill-timed admission
         is exactly an inline peak's worth on top of the steady state).
         Oversized stragglers finish the inline path instead, which
         absorbs the queue anyway. *)
      if Collector.late c then begin
        Collector.note_fallback c;
        absorb_queued c ~dst:h.bag;
        collect h
      end
      else if len <= 2 * Atomic.get t.adaptive && Collector.offer c full then begin
        (* the ring owns [full] now; replace it before the next push *)
        h.bag <-
          (match Collector.take_bag c with
          | Some b -> b
          | None ->
              Retire_bag.create ~capacity:(2 * Atomic.get t.adaptive)
                entry_dummy);
        h.defers_since_pass <- 0;
        if Trace.enabled () then
          Trace.emit Trace.Handoff (-1) len (Collector.occupancy c);
        (* Keep the epoch ticking at handoff cadence: the collector frees a
           handed-off entry only once its grace period has passed, and on a
           busy machine the collector's own advance attempts may lag. An
           attempt is one participant-list scan + CAS — noise next to the
           scan it saves the drain from re-running. *)
        try_advance t
      end
      else begin
        (* Advance even on a failed offer: the queued and local garbage
           keeps ripening while the ring is backed up, so the eventual
           pass (here or on the collector) frees it wholesale. *)
        try_advance t;
        if h.defers_since_pass >= baseline then begin
          absorb_queued c ~dst:h.bag;
          collect h
        end
      end
  | Some c ->
      Collector.note_fallback c;
      h.defers_since_collect <- 0;
      if h.defers_since_pass >= baseline then begin
        absorb_queued c ~dst:h.bag;
        collect h
      end
  | None -> collect h

let defer h thunk =
  let epoch = Atomic.get h.shared.global_epoch in
  Retire_bag.push h.bag (epoch, thunk);
  h.defers_since_collect <- h.defers_since_collect + 1;
  h.defers_since_pass <- h.defers_since_pass + 1;
  if h.defers_since_collect >= Atomic.get h.shared.adaptive then
    collect_or_handoff h

let retire h hdr =
  Mem.retire_mark hdr;
  Stats.on_retire h.shared.stats;
  let t = h.shared in
  defer h (fun () ->
      Mem.free_mark hdr;
      Stats.on_free t.stats)

let retire_with_children h hdr ~children:_ = retire h hdr
let incr_ref _ = ()

let try_unlink h ~frontier:_ ~do_unlink ~node_header ~invalidate:_ =
  match do_unlink () with
  | None -> false
  | Some nodes ->
      List.iter (fun n -> retire h (node_header n)) nodes;
      true

let flush h =
  (* Up to three passes so a quiescent system drains completely: each pass
     can advance the epoch by one and freeing needs a lag of two. *)
  collect h;
  collect h;
  collect h

let unregister h =
  crit_exit h;
  collect h;
  Orphanage.add h.shared.orphans h.bag;
  Atomic.set h.me.alive false

let shutdown t =
  match t.collector with
  | None -> ()
  | Some c ->
      Collector.shutdown c ~recover:(Orphanage.add t.orphans);
      (* Leftover pending entries are consistent (no fault point tears the
         pending bag — see [drain]); donate them verbatim with their
         retirement epochs intact. *)
      Orphanage.add t.orphans t.pending

(* Crash recovery: mark the participant dead — the next try_advance prunes
   it and the epoch is unpinned, which is all the "rescue" EBR admits —
   and hand its bag to the orphanage with the retirement epochs intact.
   The bag is adopted verbatim: the only reclaim-pass injection point sits
   before the filter (see [collect]), so a crashed owner cannot have left
   it torn. *)
let report_crashed h =
  Trace.emit Trace.Crash (-1) h.dom 0;
  Atomic.set h.me.alive false;
  Orphanage.add h.shared.orphans h.bag

let collector_counters t = Option.map Collector.counters t.collector
let collector_stats t = Option.map Collector.stats t.collector
