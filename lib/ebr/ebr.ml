module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Retire_bag = Smr.Retire_bag
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

module R = Smr.Reclaim.Make (struct
  type t = int * (unit -> unit)

  let dummy = (0, ignore)

  (* Bags are donated verbatim: closures carry no uid to dedup by and no
     freed-state to skip on, and no fault point tears a bag (see
     [collect]). *)
  let salvage = None
end)

type t = {
  stats : Stats.t;
  global_epoch : int Atomic.t;
  participants : participant list Atomic.t;
  reclaim : R.t;
}

and participant = { status : int Atomic.t; alive : bool Atomic.t }

type handle = {
  shared : t;
  me : participant;
  dom : int; (* registering domain, stamped on Crash trace events *)
  bag : R.local;
  mutable defers_since_collect : int;
}

type guard = unit

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
  R.begin_pass t.reclaim h.bag;
  try_advance t;
  free_ripe t (R.bag h.bag)

let create ?(config = Smr.Smr_intf.default_config) () =
  let stats = Stats.create () in
  let t =
    {
      stats;
      global_epoch = Atomic.make 0;
      participants = Atomic.make [];
      reclaim = R.create config stats;
    }
  in
  (* Collector drain: advance the epoch once for the whole batch, free
     what is ripe. No fault point inside the filter for the same tearing
     reason as [collect]; the [Fault.Collector] point at the loop top
     covers collector crashes, where the pending bag is between cycles and
     hence consistent. On every handoff (and refused offer) the mutator
     tries an advance too: the collector frees a handed-off entry only once
     its grace period has passed, and on a busy machine its own advance
     attempts may lag. An attempt is one participant-list scan + CAS. *)
  R.start t.reclaim
    ~on_handoff:(fun () -> try_advance t)
    ~drain:(fun bag ->
      try_advance t;
      free_ripe t bag)
    ();
  t

let register shared =
  let me = { status = Atomic.make quiescent; alive = Atomic.make true } in
  push_participant shared me;
  {
    shared;
    me;
    dom = (Domain.self () :> int);
    bag = R.register shared.reclaim;
    defers_since_collect = 0;
  }

let defer h thunk =
  let t = h.shared in
  R.push h.bag (Atomic.get t.global_epoch, thunk);
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
  R.donate h.shared.reclaim h.bag;
  Atomic.set h.me.alive false

let shutdown t = R.shutdown t.reclaim

(* Crash recovery: mark the participant dead — the next try_advance prunes
   it and the epoch is unpinned, which is all the "rescue" EBR admits —
   and hand its bag to the orphanage with the retirement epochs intact.
   The bag is adopted verbatim: the only reclaim-pass injection point sits
   before the filter (see [collect]), so a crashed owner cannot have left
   it torn. *)
let report_crashed h =
  Trace.emit Trace.Crash (-1) h.dom 0;
  Atomic.set h.me.alive false;
  R.report_crashed h.shared.reclaim h.bag

let collector_counters t = R.collector_counters t.reclaim
let collector_stats t = R.collector_stats t.reclaim
