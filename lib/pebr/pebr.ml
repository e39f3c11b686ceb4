module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Fence = Smr_core.Fence
module Slots = Smr.Slots
module Retire_bag = Smr.Retire_bag
module Trace = Obs.Trace
module Epoch = Smr.Epoch

let name = "PEBR"
let robust = true
let supports_optimistic = true
let counts_references = false
let needs_protection = true

(* Epoch-stamped retired headers. *)
module R = Smr.Reclaim.Make (struct
  type t = int * Mem.header

  let dummy = (0, Mem.phantom)
  let salvage =
    Some
      ( (fun (_, hdr) -> Mem.uid hdr),
        fun (_, hdr) -> Smr.Reclaim.skip_header hdr )
end)

type t = {
  stats : Stats.t;
  config : Smr.Smr_intf.config;
  epoch : Epoch.t;
  registry : Slots.registry;
  reclaim : R.t;
}

type handle = {
  shared : t;
  me : Epoch.participant;
  local : Slots.local;
  bag : R.local;
  scan : Slots.scan;
  mutable retires_since_collect : int;
}

type guard = Slots.slot

let stats t = t.stats

let crit_enter h =
  Epoch.clear_neutralized h.me;
  Epoch.pin h.shared.epoch h.me

let crit_exit h = Epoch.unpin h.me
let crit_refresh h = crit_enter h

let guard h = Slots.acquire h.local
let protect = Slots.set
let release = Slots.clear

let neutralized h = Epoch.neutralized h.me
let protection_valid h = not (neutralized h)

(* Free blocks that are both epoch-ripe (grace period passed wrt
   non-neutralized threads) and unshielded. The neutralization writes in
   [Epoch.try_advance] precede the heavy fence, which precedes this shield
   snapshot: that is what makes the shield-then-validate pattern of clients
   sound. Shared by the inline pass and the collector drain; the caller has
   advanced the epoch and adopted orphans already. *)
let scan_and_free t ~scan bag =
  let epoch = Epoch.current t.epoch in
  Fence.heavy t.stats;
  Smr.Reclaim.hazard_pass t.stats t.registry scan ~header:snd
    ~ripe:(fun (e, _) -> e + 2 <= epoch)
    bag

(* Memory pressure: [bag] outgrew [neutralize_lag] reclamation thresholds,
   so the epoch must be forced forward, ejecting stragglers. *)
let under_pressure t bag =
  Retire_bag.length bag >= t.config.neutralize_lag * t.config.reclaim_threshold

let collect h =
  let t = h.shared in
  h.retires_since_collect <- 0;
  (* judged on the handle's own bag, before the orphans join it *)
  let pressure = under_pressure t (R.bag h.bag) in
  R.begin_pass t.reclaim h.bag;
  Epoch.try_advance t.epoch;
  if pressure then Epoch.try_advance ~force:true t.epoch;
  scan_and_free t ~scan:h.scan (R.bag h.bag)

let create ?(config = Smr.Smr_intf.default_config) () =
  let stats = Stats.create () in
  let t =
    {
      stats;
      config;
      epoch = Epoch.create ();
      registry = Slots.create ();
      reclaim = R.create config stats;
    }
  in
  let cscan = Slots.scan_create () in
  (* Collector drain: one epoch advance (forced under pressure), one heavy
     fence and one shield snapshot for the whole batch. The mutators try
     an advance on every handoff (and refused offer), keeping the epoch
     ticking at handoff cadence; see lib/ebr/ebr.ml. *)
  R.start t.reclaim
    ~on_handoff:(fun () -> Epoch.try_advance t.epoch)
    ~drain:(fun bag ->
      Epoch.try_advance t.epoch;
      if under_pressure t bag then begin
        (* Force twice: entries retired at the stalled epoch [e] need the
           global epoch to reach [e + 2] before the freeing rule admits
           them, and one forced advance only gets to [e + 1]. The second
           call re-ejects the same laggards, so robustness is unchanged. *)
        Epoch.try_advance ~force:true t.epoch;
        Epoch.try_advance ~force:true t.epoch
      end;
      scan_and_free t ~scan:cscan bag)
    ();
  t

let register shared =
  {
    shared;
    me = Epoch.register shared.epoch;
    local = Slots.register shared.registry;
    bag = R.register shared.reclaim;
    scan = Slots.scan_create ();
    retires_since_collect = 0;
  }

let retire h hdr =
  Mem.retire_mark h.shared.stats hdr;
  let t = h.shared in
  R.push h.bag (Epoch.current t.epoch, hdr);
  h.retires_since_collect <- h.retires_since_collect + 1;
  if h.retires_since_collect >= R.threshold t.reclaim then begin
    h.retires_since_collect <- 0;
    R.reclaim_or_handoff t.reclaim h.bag ~pass:collect h
  end

let retire_with_children h hdr ~children:_ = retire h hdr
let incr_ref _ = ()

let try_unlink h = Smr.Reclaim.unlink_then_retire retire h

let flush h =
  collect h;
  collect h;
  collect h

let unregister h =
  crit_exit h;
  collect h;
  R.donate h.shared.reclaim h.bag;
  Slots.unregister h.local;
  Epoch.leave h.me

let shutdown t = R.shutdown t.reclaim

(* Crash recovery: announce the crash (closing the victim's shield
   intervals in the trace), mark the participant dead so try_advance prunes
   it, reap its shield slots, and salvage the bag — possibly torn by a
   mid-reclaim death — into the orphanage with retirement epochs intact. *)
let report_crashed h =
  let victim_dom = Slots.dom h.local in
  Trace.emit Trace.Crash (-1) victim_dom 0;
  Epoch.leave h.me;
  Slots.reap h.local;
  R.report_crashed h.shared.reclaim h.bag

let collector_stats t = R.collector_stats t.reclaim
