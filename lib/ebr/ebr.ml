module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Retire_bag = Smr.Retire_bag
module Trace = Obs.Trace
module Epoch = Smr.Epoch

let name = "EBR"
let robust = false
let supports_optimistic = true
let counts_references = false
let needs_protection = false

module R = Smr.Reclaim.Make (struct
  type t = int * (unit -> unit)

  let dummy = (0, ignore)

  (* Bags are donated verbatim: closures carry no uid to dedup by and no
     freed-state to skip on, and no fault point tears a bag (see
     [collect]). *)
  let salvage = None
end)

type t = { stats : Stats.t; epoch : Epoch.t; reclaim : R.t }

type handle = {
  shared : t;
  me : Epoch.participant;
  dom : int; (* registering domain, stamped on Crash trace events *)
  bag : R.local;
  mutable defers_since_collect : int;
}

type guard = unit

let stats t = t.stats

let crit_enter h = Epoch.pin h.shared.epoch h.me
let crit_exit h = Epoch.unpin h.me
let crit_refresh h = crit_enter h

let guard _ = ()
let protect () _ = ()
let release () = ()
let protection_valid _ = true

(* Free every entry whose grace period has passed. Shared by the inline
   pass and the collector drain; the caller has adopted orphans already. *)
let free_ripe t bag =
  let epoch = Epoch.current t.epoch in
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
  R.begin_pass t.reclaim h.bag;
  Epoch.try_advance t.epoch;
  free_ripe t (R.bag h.bag)

let create ?(config = Smr.Smr_intf.default_config) () =
  let stats = Stats.create () in
  let t = { stats; epoch = Epoch.create (); reclaim = R.create config stats } in
  (* Collector drain: advance the epoch once for the whole batch, free
     what is ripe. No fault point inside the filter for the same tearing
     reason as [collect]; the [Fault.Collector] point at the loop top
     covers collector crashes, where the pending bag is between cycles and
     hence consistent. On every handoff (and refused offer) the mutator
     tries an advance too: the collector frees a handed-off entry only once
     its grace period has passed, and on a busy machine its own advance
     attempts may lag. An attempt is one participant-list scan + CAS. *)
  R.start t.reclaim
    ~on_handoff:(fun () -> Epoch.try_advance t.epoch)
    ~drain:(fun bag ->
      Epoch.try_advance t.epoch;
      free_ripe t bag)
    ();
  t

let register shared =
  {
    shared;
    me = Epoch.register shared.epoch;
    dom = (Domain.self () :> int);
    bag = R.register shared.reclaim;
    defers_since_collect = 0;
  }

let defer h thunk =
  let t = h.shared in
  R.push h.bag (Epoch.current t.epoch, thunk);
  h.defers_since_collect <- h.defers_since_collect + 1;
  if h.defers_since_collect >= R.threshold t.reclaim then begin
    h.defers_since_collect <- 0;
    R.reclaim_or_handoff t.reclaim h.bag ~pass:collect h
  end

let retire h hdr =
  let stats = h.shared.stats in
  Mem.retire_mark stats hdr;
  defer h (fun () -> Mem.free_mark stats hdr)

let retire_with_children h hdr ~children:_ = retire h hdr
let incr_ref _ = ()

let try_unlink h = Smr.Reclaim.unlink_then_retire retire h

let flush h =
  (* Up to three passes so a quiescent system drains completely: each pass
     can advance the epoch by one and freeing needs a lag of two. *)
  collect h;
  collect h;
  collect h

let unregister h =
  crit_exit h;
  collect h;
  R.donate h.shared.reclaim h.bag;
  Epoch.leave h.me

let shutdown t = R.shutdown t.reclaim

(* Crash recovery: mark the participant dead — the next try_advance prunes
   it and the epoch is unpinned, which is all the "rescue" EBR admits —
   and hand its bag to the orphanage with the retirement epochs intact.
   The bag is adopted verbatim: the only reclaim-pass injection point sits
   before the filter (see [collect]), so a crashed owner cannot have left
   it torn. *)
let report_crashed h =
  Trace.emit Trace.Crash (-1) h.dom 0;
  Epoch.leave h.me;
  R.report_crashed h.shared.reclaim h.bag

let collector_stats t = R.collector_stats t.reclaim
