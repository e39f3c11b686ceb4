module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Fence = Smr_core.Fence
module Slots = Smr.Slots
module Retire_bag = Smr.Retire_bag
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
  global_epoch : int Atomic.t;
  participants : participant list Atomic.t;
  registry : Slots.registry;
  reclaim : R.t;
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
  bag : R.local;
  scan : Slots.scan;
  mutable retires_since_collect : int;
}

type guard = { slot : Slots.slot }

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
        Mem.free_mark t.stats hdr;
        false
      end
      else true)
    bag;
  if Trace.enabled () then
    Trace.emit Trace.Reclaim_pass (-1)
      (before - Retire_bag.length bag)
      (Slots.scan_size scan)

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
  try_advance t;
  if pressure then try_advance ~force:true t;
  scan_and_free t ~scan:h.scan (R.bag h.bag)

let create ?(config = Smr.Smr_intf.default_config) () =
  let stats = Stats.create () in
  let t =
    {
      stats;
      config;
      global_epoch = Atomic.make 0;
      participants = Atomic.make [];
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
    ~on_handoff:(fun () -> try_advance t)
    ~drain:(fun bag ->
      try_advance t;
      if under_pressure t bag then begin
        (* Force twice: entries retired at the stalled epoch [e] need the
           global epoch to reach [e + 2] before the freeing rule admits
           them, and one forced advance only gets to [e + 1]. The second
           call re-ejects the same laggards, so robustness is unchanged. *)
        try_advance ~force:true t;
        try_advance ~force:true t
      end;
      scan_and_free t ~scan:cscan bag)
    ();
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
    bag = R.register shared.reclaim;
    scan = Slots.scan_create ();
    retires_since_collect = 0;
  }

let retire h hdr =
  Mem.retire_mark h.shared.stats hdr;
  let t = h.shared in
  R.push h.bag (Atomic.get t.global_epoch, hdr);
  h.retires_since_collect <- h.retires_since_collect + 1;
  if h.retires_since_collect >= R.threshold t.reclaim then begin
    h.retires_since_collect <- 0;
    R.reclaim_or_handoff t.reclaim h.bag ~pass:collect h
  end

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
  R.donate h.shared.reclaim h.bag;
  Slots.unregister h.local;
  Atomic.set h.me.alive false

let shutdown t = R.shutdown t.reclaim

(* Crash recovery: announce the crash (closing the victim's shield
   intervals in the trace), mark the participant dead so try_advance prunes
   it, reap its shield slots, and salvage the bag — possibly torn by a
   mid-reclaim death — into the orphanage with retirement epochs intact. *)
let report_crashed h =
  let victim_dom = Slots.dom h.local in
  Trace.emit Trace.Crash (-1) victim_dom 0;
  Atomic.set h.me.alive false;
  Slots.reap h.local;
  R.report_crashed h.shared.reclaim h.bag

let collector_counters t = R.collector_counters t.reclaim
let collector_stats t = R.collector_stats t.reclaim
