module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Fence = Smr_core.Fence
module Slots = Smr.Slots
module Retire_bag = Smr.Retire_bag
module Trace = Obs.Trace
module R = Smr.Reclaim.Make (Smr.Reclaim.Header)

let name = "HP"
let robust = true
let supports_optimistic = false
let counts_references = false
let needs_protection = true

type t = { registry : Slots.registry; stats : Stats.t; reclaim : R.t }

type handle = {
  shared : t;
  local : Slots.local;
  retireds : R.local;
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

(* One scan-and-free pass over [bag]: the core of both the inline reclaim
   (per-handle bag and scan scratch) and the collector drain (its pending
   bag and private scan scratch). The caller has already adopted orphans
   and noted peaks. The heavy fence makes every slot store issued before it
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
        Mem.free_mark t.stats hdr;
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
  R.begin_pass t.reclaim h.retireds;
  scan_and_free t ~scan:h.scan (R.bag h.retireds)

let create ?(config = Smr.Smr_intf.default_config) () =
  let stats = Stats.create () in
  let t =
    { registry = Slots.create (); stats; reclaim = R.create config stats }
  in
  (* the collector's drain pass: one snapshot + heavy fence for the whole
     batch, over its private scan scratch *)
  R.start t.reclaim ~drain:(scan_and_free t ~scan:(Slots.scan_create ())) ();
  t

let register shared =
  {
    shared;
    local = Slots.register shared.registry;
    retireds = R.register shared.reclaim;
    scan = Slots.scan_create ();
  }

let retire h hdr =
  Mem.retire_mark h.shared.stats hdr;
  R.push h.retireds hdr;
  if R.length h.retireds >= R.threshold h.shared.reclaim then
    R.reclaim_or_handoff h.shared.reclaim h.retireds ~pass:reclaim h

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
  R.donate h.shared.reclaim h.retireds;
  Slots.unregister h.local

let shutdown t = R.shutdown t.reclaim

(* Crash recovery: announce the crash (the trace checker closes the
   victim's protection intervals at this event), withdraw its hazard
   slots, then salvage the retire bag — possibly torn by a mid-reclaim
   death — and donate it whole to the orphanage. Classic HP has no
   deferred invalidation to complete, so this is the whole obligation. *)
let report_crashed h =
  let victim_dom = Slots.dom h.local in
  Trace.emit Trace.Crash (-1) victim_dom 0;
  Slots.reap h.local;
  R.report_crashed h.shared.reclaim h.retireds

let collector_counters t = R.collector_counters t.reclaim
let collector_stats t = R.collector_stats t.reclaim
