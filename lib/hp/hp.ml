module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Fence = Smr_core.Fence
module Slots = Smr.Slots
module Orphanage = Smr.Orphanage
module Retire_bag = Smr.Retire_bag
module Collector = Smr.Collector
module Trace = Obs.Trace

let name = "HP"
let robust = true
let supports_optimistic = false
let counts_references = false
let needs_protection = true

type t = {
  registry : Slots.registry;
  stats : Stats.t;
  config : Smr.Smr_intf.config;
  orphans : Mem.header Orphanage.t;
  (* Adaptive reclaim threshold: equals [config.reclaim_threshold] and never
     moves in inline mode; the background collector retunes it from observed
     garbage in async mode. Read (one load) on every threshold check. *)
  adaptive : int Atomic.t;
  (* Collector-domain-private state: handed-off bags accumulate in [pending]
     and are scanned with [cscan]. Touched by the mutators only after
     [Collector.shutdown]'s join. *)
  pending : Mem.header Retire_bag.t;
  cscan : Slots.scan;
  (* smr-lint: allow R3 — written once in [create] before [t] escapes; read-only afterwards *)
  mutable collector : Mem.header Retire_bag.t Collector.t option;
}

type handle = {
  shared : t;
  local : Slots.local;
  (* Single-owner: swaps only on the owning domain's handoff path. *)
  mutable retireds : Mem.header Retire_bag.t;
  scan : Slots.scan;
}

type guard = { slot : Slots.slot }

let stats t = t.stats

let crit_enter _ = ()
let crit_exit _ = ()
let crit_refresh _ = ()
let protection_valid _ = true

let guard h = { slot = Slots.acquire h.local }
let[@inline] protect g hdr = Slots.set g.slot hdr
let release g = Slots.clear g.slot

let skip_in_salvage hdr = Mem.uid hdr = Mem.phantom_uid || Mem.is_freed hdr

(* One scan-and-free pass over [bag]: the core of both the inline reclaim
   (per-handle bag and scan scratch) and the collector drain (shared
   pending bag and [cscan]). The caller has already adopted orphans and
   noted peaks. The heavy fence makes every slot store issued before it
   visible to the snapshot; everything in [bag] was unlinked before it. *)
let scan_and_free t ~scan bag =
  Fence.heavy t.stats;
  Slots.scan_snapshot t.registry scan;
  let before = Retire_bag.length bag in
  Retire_bag.filter_in_place
    (fun hdr ->
      (* Crash window: a kill mid-filter tears the bag; report_crashed (or
         scheme shutdown, when this runs on the collector domain) salvages
         it with dedup. *)
      if Fault.enabled () then Fault.hit Fault.Reclaim;
      if Slots.scan_mem scan (Mem.uid hdr) then true
      else begin
        Mem.free_mark hdr;
        Stats.on_free t.stats;
        false
      end)
    bag;
  if Trace.enabled () then
    Trace.emit Trace.Reclaim_pass (-1)
      (before - Retire_bag.length bag)
      (Slots.scan_size scan)

(* Paper Algorithm 2 Reclaim, inline flavour. The asymmetric-fence
   optimization makes the reclaimer pay the heavy fence (a membarrier) so
   that TryProtect pays none. The hazard snapshot is sorted once and each
   retired uid binary-searched (Michael's amortized scan); survivors
   compact in place, so the pass allocates nothing at steady state. *)
let reclaim h =
  let t = h.shared in
  Orphanage.adopt_into t.orphans ~dst:h.retireds;
  Stats.note_peaks t.stats;
  scan_and_free t ~scan:h.scan h.retireds

(* Collector drain: fold the [n] handed-off bags (plus any orphans) into
   [t.pending], then pay ONE snapshot + heavy fence for the whole batch —
   the cross-domain amortization that the inline path cannot have. Runs
   only on the collector domain. Returns the still-pending count and
   retunes the adaptive threshold from the global garbage gauge. *)
let drain t bags n =
  for i = 0 to n - 1 do
    Retire_bag.transfer ~src:bags.(i) ~dst:t.pending
  done;
  Orphanage.adopt_into t.orphans ~dst:t.pending;
  if not (Retire_bag.is_empty t.pending) then begin
    Stats.note_peaks t.stats;
    scan_and_free t ~scan:t.cscan t.pending
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
      registry = Slots.create ();
      stats = Stats.create ();
      config;
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
      pending = Retire_bag.create Mem.phantom;
      cscan = Slots.scan_create ();
      collector = None;
    }
  in
  if config.async_reclaim then
    t.collector <-
      Some
        (Collector.spawn ~capacity:config.handoff_capacity ~length:Retire_bag.length
           ~drain:(drain t)
           ~dummy:(Retire_bag.create ~capacity:1 Mem.phantom)
           ());
  t

let register shared =
  {
    shared;
    local = Slots.register shared.registry;
    retireds =
      Retire_bag.create ~capacity:(2 * shared.config.reclaim_threshold)
        Mem.phantom;
    scan = Slots.scan_create ();
  }

(* The retire bag crossed the (adaptive) handoff threshold. Async mode:
   hand the full bag over and take a recycled empty one back — the hot
   path pays a ring push and two pointer moves instead of a snapshot. On
   failure (queue full, collector stalled-and-backlogged or dead) the bag
   keeps accumulating until the {e configured} baseline before the inline
   pass runs: handoffs are attempted at the smaller adaptive mark to keep
   queued garbage low, but a starved collector degrades this path to
   exactly the inline scan cadence, never a denser one. *)
(* Fold every queued bag into [dst] so the caller's imminent snapshot
   amortizes over them too: the ring drains even when the collector is
   starved of cpu or dead, which is what pins async peak garbage near the
   inline envelope instead of ring-capacity above it. *)
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

let reclaim_or_handoff h =
  let t = h.shared in
  let baseline = t.config.reclaim_threshold in
  match t.collector with
  | Some c when Collector.running c ->
      let full = h.retireds in
      let len = Retire_bag.length full in
      (* Only small bags enter the ring. A bag that grew toward baseline
         during a ring-full spell — or that carries unripe epoch survivors
         after an inline pass — would park a near-baseline slug of garbage
         in the queue behind a starved collector (one ill-timed admission
         is exactly an inline peak's worth on top of the steady state).
         Oversized stragglers finish the inline path instead, which
         absorbs the queue anyway. *)
      if Collector.late c then begin
        Collector.note_fallback c;
        absorb_queued c ~dst:h.retireds;
        reclaim h
      end
      else if len <= 2 * Atomic.get t.adaptive && Collector.offer c full then begin
        (* the ring owns [full] now; replace it before the next push *)
        h.retireds <-
          (match Collector.take_bag c with
          | Some b -> b
          | None ->
              Retire_bag.create ~capacity:(2 * Atomic.get t.adaptive)
                Mem.phantom);
        if Trace.enabled () then
          Trace.emit Trace.Handoff (-1) len (Collector.occupancy c)
      end
      else if len >= baseline then begin
        absorb_queued c ~dst:h.retireds;
        reclaim h
      end
  | Some c ->
      Collector.note_fallback c;
      if Retire_bag.length h.retireds >= baseline then begin
        absorb_queued c ~dst:h.retireds;
        reclaim h
      end
  | None -> reclaim h

let retire h hdr =
  Mem.retire_mark hdr;
  Stats.on_retire h.shared.stats;
  Retire_bag.push h.retireds hdr;
  if Retire_bag.length h.retireds >= Atomic.get h.shared.adaptive then
    reclaim_or_handoff h

let retire_with_children h hdr ~children:_ = retire h hdr
let incr_ref _ = ()

(* No frontier protection, no invalidation: unlink then classic retire. *)
let try_unlink h ~frontier:_ ~do_unlink ~node_header ~invalidate:_ =
  match do_unlink () with
  | None -> false
  | Some nodes ->
      List.iter (fun n -> retire h (node_header n)) nodes;
      true

let flush h = reclaim h

let unregister h =
  reclaim h;
  Orphanage.add h.shared.orphans h.retireds;
  Slots.unregister h.local

let shutdown t =
  match t.collector with
  | None -> ()
  | Some c ->
      Collector.shutdown c ~recover:(Orphanage.add t.orphans);
      (* The pending bag may hold survivors (blocks still protected at the
         final drain) or be torn (collector killed mid-filter): salvage in
         place, then donate it whole for inline passes to adopt. *)
      Retire_bag.salvage ~uid:Mem.uid ~skip:skip_in_salvage t.pending;
      Orphanage.add t.orphans t.pending

(* Crash recovery: announce the crash (the trace checker closes the
   victim's protection intervals at this event), withdraw its hazard
   slots, then salvage the retire bag — possibly torn by a mid-reclaim
   death — and donate it whole to the orphanage. Classic HP has no
   deferred invalidation to complete, so this is the whole obligation. *)
let report_crashed h =
  let victim_dom = Slots.dom h.local in
  Trace.emit Trace.Crash (-1) victim_dom 0;
  Slots.reap h.local;
  Retire_bag.salvage ~uid:Mem.uid ~skip:skip_in_salvage h.retireds;
  Orphanage.add h.shared.orphans h.retireds

let collector_counters t = Option.map Collector.counters t.collector
let collector_stats t = Option.map Collector.stats t.collector
