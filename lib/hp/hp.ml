module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Fence = Smr_core.Fence
module Slots = Smr.Slots
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

type guard = Slots.slot

let stats t = t.stats

let crit_enter _ = ()
let crit_exit _ = ()
let crit_refresh _ = ()
let protection_valid = Slots.always_valid

let guard h = Slots.acquire h.local
let protect = Slots.set
let release = Slots.clear

(* One scan-and-free pass over [bag]: the core of both the inline reclaim
   (per-handle bag and scan scratch) and the collector drain (its pending
   bag and private scan scratch). The heavy fence makes every slot store
   issued before it visible to the snapshot. *)
let scan_and_free t ~scan bag =
  Fence.heavy t.stats;
  Smr.Reclaim.hazard_pass t.stats t.registry scan ~header:Fun.id bag

(* Paper Algorithm 2 Reclaim, inline flavour. The asymmetric-fence
   optimization makes the reclaimer pay the heavy fence (a membarrier) so
   that TryProtect pays none. *)
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
let try_unlink h = Smr.Reclaim.unlink_then_retire retire h

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

let collector_stats t = R.collector_stats t.reclaim
