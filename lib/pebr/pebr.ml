module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Fence = Smr_core.Fence
module Slots = Smr.Slots
module Orphanage = Smr.Orphanage
module Retire_bag = Smr.Retire_bag
module Collector = Smr.Collector
module Trace = Obs.Trace

let name = "PEBR"
let robust = true
let supports_optimistic = true
let counts_references = false
let needs_protection = true

let quiescent = 0
let pinned_at epoch = (epoch lsl 1) lor 1
let is_pinned status = status land 1 = 1
let pinned_epoch status = status lsr 1

type entry = int * Mem.header

type t = {
  stats : Stats.t;
  config : Smr.Smr_intf.config;
  global_epoch : int Atomic.t;
  participants : participant list Atomic.t;
  registry : Slots.registry;
  orphans : entry Orphanage.t;
  (* Adaptive retire threshold; see lib/hp/hp.ml. *)
  adaptive : int Atomic.t;
  (* Collector-domain-private accumulation and scan scratch. *)
  pending : entry Retire_bag.t;
  cscan : Slots.scan;
  (* smr-lint: allow R3 — written once in [create] before [t] escapes; read-only afterwards *)
  mutable collector : entry Retire_bag.t Collector.t option;
}

and participant = {
  status : int Atomic.t;
  alive : bool Atomic.t;
  neutralized : bool Atomic.t;
}

type handle = {
  shared : t;
  me : participant;
  local : Slots.local;
  (* Single-owner: swaps only on the owning domain's handoff path. *)
  mutable bag : entry Retire_bag.t;
  scan : Slots.scan;
  mutable retires_since_collect : int;
  (* Retires since the last event that covered this handle's garbage — an
     inline pass or a successful handoff. Gates the async fallback pass:
     bag {e length} would ratchet (unripe survivors keep it high after
     every pass), driving scans denser than the inline cadence. *)
  mutable retires_since_pass : int;
}

type guard = { slot : Slots.slot }

let entry_dummy : entry = (0, Mem.phantom)
let stats t = t.stats
let global_epoch t = Atomic.get t.global_epoch

let rec push_participant t p =
  let cur = Atomic.get t.participants in
  if not (Atomic.compare_and_set t.participants cur (p :: cur)) then
    push_participant t p

let crit_enter h =
  Atomic.set h.me.neutralized false;
  Atomic.set h.me.status (pinned_at (Atomic.get h.shared.global_epoch));
  (* Crash window: pinned critical section. Unlike EBR, an unreported
     victim only stalls reclamation until memory pressure neutralizes it
     (PEBR's robustness); report_crashed additionally reaps its shields. *)
  if Fault.enabled () then Fault.hit Fault.Crit

let crit_exit h = Atomic.set h.me.status quiescent
let crit_refresh h = crit_enter h

let guard h = { slot = Slots.acquire h.local }
let[@inline] protect g hdr = Slots.set g.slot hdr
let release g = Slots.clear g.slot

let neutralized h = Atomic.get h.me.neutralized
let protection_valid h = not (neutralized h)

(* Advance the epoch. Without [force], this is EBR's rule: every live
   pinned participant must have observed the current epoch. With [force]
   (reclamation under memory pressure), laggards are {e neutralized} — their
   blanket epoch protection is withdrawn, only their shields remain — and
   the advance proceeds regardless. Either way, a participant that stays
   non-neutralized and pinned at epoch [e] guarantees the global epoch is at
   most [e + 1], which is the grace period the freeing rule relies on. *)
let try_advance ?(force = false) t =
  let epoch = Atomic.get t.global_epoch in
  let ps = Atomic.get t.participants in
  let all_clear = ref true and any_dead = ref false in
  List.iter
    (fun p ->
      if not (Atomic.get p.alive) then any_dead := true
      else
        let s = Atomic.get p.status in
        if is_pinned s && pinned_epoch s <> epoch then
          if force then Atomic.set p.neutralized true
          else all_clear := false)
    ps;
  (* Prune dead participants (best-effort CAS) so they are not rescanned on
     every future advance attempt. *)
  if !any_dead then begin
    let pruned = List.filter (fun p -> Atomic.get p.alive) ps in
    ignore (Atomic.compare_and_set t.participants ps pruned)
  end;
  if !all_clear && Atomic.compare_and_set t.global_epoch epoch (epoch + 1)
  then
    (* b = 1 marks a forced advance, i.e. laggards were neutralized. *)
    Trace.emit Trace.Epoch_advance (-1) (epoch + 1) (if force then 1 else 0)

let skip_in_salvage (_, hdr) =
  Mem.uid hdr = Mem.phantom_uid || Mem.is_freed hdr

let entry_uid (_, hdr) = Mem.uid hdr

(* Free blocks that are both epoch-ripe (grace period passed wrt
   non-neutralized threads) and unshielded. The neutralization writes in
   [try_advance] precede the heavy fence, which precedes this shield
   snapshot: that is what makes the shield-then-validate pattern of clients
   sound. Shared by the inline pass and the collector drain; the caller has
   advanced the epoch and adopted orphans already. *)
let scan_and_free t ~scan bag =
  let epoch = Atomic.get t.global_epoch in
  Fence.heavy t.stats;
  Slots.scan_snapshot t.registry scan;
  let before = Retire_bag.length bag in
  Retire_bag.filter_in_place
    (fun (e, hdr) ->
      (* Crash window: a kill mid-filter tears the bag; report_crashed (or
         scheme shutdown, for the collector's pending bag) salvages it with
         dedup. *)
      if Fault.enabled () then Fault.hit Fault.Reclaim;
      if e + 2 <= epoch && not (Slots.scan_mem scan (Mem.uid hdr)) then begin
        Mem.free_mark hdr;
        Stats.on_free t.stats;
        false
      end
      else true)
    bag;
  if Trace.enabled () then
    Trace.emit Trace.Reclaim_pass (-1)
      (before - Retire_bag.length bag)
      (Slots.scan_size scan)

let collect h =
  let t = h.shared in
  h.retires_since_collect <- 0;
  h.retires_since_pass <- 0;
  Stats.note_peaks t.stats;
  try_advance t;
  (* Memory pressure: the local bag outgrew [neutralize_lag] reclamation
     thresholds, so force the epoch forward, ejecting stragglers. *)
  if
    Retire_bag.length h.bag
    >= t.config.neutralize_lag * t.config.reclaim_threshold
  then try_advance ~force:true t;
  Orphanage.adopt_into t.orphans ~dst:h.bag;
  scan_and_free t ~scan:h.scan h.bag

(* Collector drain: fold handed-off bags and orphans into [t.pending], then
   one epoch advance (forced under pressure), one heavy fence and one
   shield snapshot for the whole batch. Runs only on the collector
   domain. *)
let drain t bags n =
  for i = 0 to n - 1 do
    Retire_bag.transfer ~src:bags.(i) ~dst:t.pending
  done;
  Orphanage.adopt_into t.orphans ~dst:t.pending;
  if not (Retire_bag.is_empty t.pending) then begin
    Stats.note_peaks t.stats;
    try_advance t;
    if
      Retire_bag.length t.pending
      >= t.config.neutralize_lag * t.config.reclaim_threshold
    then begin
      (* Force twice: entries retired at the stalled epoch [e] need the
         global epoch to reach [e + 2] before the freeing rule admits them,
         and one forced advance only gets to [e + 1]. The second call
         re-ejects the same laggards, so robustness is unchanged. *)
      try_advance ~force:true t;
      try_advance ~force:true t
    end;
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
      stats = Stats.create ();
      config;
      global_epoch = Atomic.make 0;
      participants = Atomic.make [];
      registry = Slots.create ();
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
      cscan = Slots.scan_create ();
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
  let me =
    {
      status = Atomic.make quiescent;
      alive = Atomic.make true;
      neutralized = Atomic.make false;
    }
  in
  push_participant shared me;
  {
    shared;
    me;
    local = Slots.register shared.registry;
    bag =
      Retire_bag.create ~capacity:(2 * shared.config.reclaim_threshold)
        entry_dummy;
    scan = Slots.scan_create ();
    retires_since_collect = 0;
    retires_since_pass = 0;
  }

(* Threshold crossed: hand the full bag over (taking a recycled empty one
   back) or keep accumulating until the configured baseline before the
   inline pass — a starved collector degrades this path to exactly the
   inline cadence, never a denser one. *)
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
      h.retires_since_collect <- 0;
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
        h.retires_since_pass <- 0;
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
        if h.retires_since_pass >= baseline then begin
          absorb_queued c ~dst:h.bag;
          collect h
        end
      end
  | Some c ->
      Collector.note_fallback c;
      h.retires_since_collect <- 0;
      if h.retires_since_pass >= baseline then begin
        absorb_queued c ~dst:h.bag;
        collect h
      end
  | None -> collect h

let retire h hdr =
  Mem.retire_mark hdr;
  Stats.on_retire h.shared.stats;
  Retire_bag.push h.bag (Atomic.get h.shared.global_epoch, hdr);
  h.retires_since_collect <- h.retires_since_collect + 1;
  h.retires_since_pass <- h.retires_since_pass + 1;
  if h.retires_since_collect >= Atomic.get h.shared.adaptive then
    collect_or_handoff h

let retire_with_children h hdr ~children:_ = retire h hdr
let incr_ref _ = ()

let try_unlink h ~frontier:_ ~do_unlink ~node_header ~invalidate:_ =
  match do_unlink () with
  | None -> false
  | Some nodes ->
      List.iter (fun n -> retire h (node_header n)) nodes;
      true

let flush h =
  collect h;
  collect h;
  collect h

let unregister h =
  crit_exit h;
  collect h;
  Orphanage.add h.shared.orphans h.bag;
  Slots.unregister h.local;
  Atomic.set h.me.alive false

let shutdown t =
  match t.collector with
  | None -> ()
  | Some c ->
      Collector.shutdown c ~recover:(Orphanage.add t.orphans);
      (* The pending bag may be torn by a mid-filter collector kill:
         salvage in place, then donate whole. *)
      Retire_bag.salvage ~uid:entry_uid ~skip:skip_in_salvage t.pending;
      Orphanage.add t.orphans t.pending

(* Crash recovery: announce the crash (closing the victim's shield
   intervals in the trace), mark the participant dead so try_advance prunes
   it, reap its shield slots, and salvage the bag — possibly torn by a
   mid-reclaim death — into the orphanage with retirement epochs intact. *)
let report_crashed h =
  let victim_dom = Slots.dom h.local in
  Trace.emit Trace.Crash (-1) victim_dom 0;
  Atomic.set h.me.alive false;
  Slots.reap h.local;
  Retire_bag.salvage ~uid:entry_uid ~skip:skip_in_salvage h.bag;
  Orphanage.add h.shared.orphans h.bag

let collector_counters t = Option.map Collector.counters t.collector
let collector_stats t = Option.map Collector.stats t.collector
