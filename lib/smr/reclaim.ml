(* The retire-bag → handoff-or-inline-pass → drain → salvage pipeline,
   once for every scheme. The scheme's "safe to free" test arrives as two
   passes: the inline one is handed to [reclaim_or_handoff] per call (it
   needs the handle), the drain one to [start] (it needs the scheme state,
   which is built after [create] returns — hence the one late-bound
   field). *)

module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Trace = Obs.Trace

module type ENTRY = sig
  type t

  val dummy : t
  val salvage : ((t -> int) * (t -> bool)) option
end

let skip_header hdr = Mem.uid hdr = Mem.phantom_uid || Mem.is_freed hdr

module Header = struct
  type t = Mem.header

  let dummy = Mem.phantom
  let salvage = Some (Mem.uid, skip_header)
end

(* The hazard pass of HP, HP++ and PEBR: snapshot the slots, free every
   [ripe] entry whose block no slot names, keep the rest in place. The
   caller has adopted orphans, noted peaks and paid its fence: every slot
   store issued before that fence is visible to the snapshot, and
   everything in [bag] was unlinked before it. The snapshot is sorted once
   and each retired uid binary-searched (Michael's amortized scan);
   survivors compact in place, so the pass allocates nothing at steady
   state. *)
let hazard_pass stats registry scan ?ripe ~header bag =
  Slots.scan_snapshot registry scan;
  let before = Retire_bag.length bag in
  Retire_bag.filter_in_place
    (fun e ->
      (* Crash window: a kill mid-filter tears the bag (compacted prefix +
         stale already-processed window + unprocessed tail); report_crashed
         (or scheme shutdown, for the collector's pending bag) salvages it
         with dedup. *)
      if Fault.enabled () then Fault.hit Fault.Reclaim;
      let hdr = header e in
      if
        (match ripe with None -> true | Some ripe -> ripe e)
        && not (Slots.scan_mem scan (Mem.uid hdr))
      then begin
        Mem.free_mark stats hdr;
        false
      end
      else true)
    bag;
  if Trace.enabled () then
    Trace.emit Trace.Reclaim_pass (-1)
      (before - Retire_bag.length bag)
      (Slots.scan_size scan)

(* TryUnlink for the schemes with no frontier to protect and nothing to
   invalidate: unlink, then retire each node classically. *)
let unlink_then_retire retire h ~frontier:_ ~do_unlink ~node_header
    ~invalidate:_ =
  match do_unlink () with
  | None -> false
  | Some nodes ->
      List.iter (fun n -> retire h (node_header n)) nodes;
      true

module Make (E : ENTRY) = struct
  type bag = E.t Retire_bag.t
  type async = { ring : bag Collector.t; on_handoff : unit -> unit }

  type t = {
    config : Smr_intf.config;
    stats : Stats.t;
    grain : int; (* async handoff size *)
    threshold : int; (* grain in async mode, reclaim_threshold inline *)
    orphans : E.t Orphanage.t;
    (* Collector-domain-private accumulation: handed-off bags and orphans
       are folded here and filtered by the scheme's drain pass. Touched by
       mutators only after [Collector.shutdown]'s join. *)
    pending : bag;
    (* Written once by [start], inside the scheme's [create], before the
       scheme state escapes; read-only afterwards. *)
    mutable async : async option;
  }

  type local = {
    (* Swapped only on the owning domain's handoff path. *)
    mutable bag : bag;
    (* Pushes since the last event that covered this handle's garbage — an
       inline pass or a successful handoff. Gates the async fallback. *)
    mutable since_pass : int;
  }

  let create (config : Smr_intf.config) stats =
    let grain =
      min config.reclaim_threshold (max 16 (config.reclaim_threshold / 8))
    in
    {
      config;
      stats;
      grain;
      (* async mode hands off small bags early and often: a ring push costs
         nanoseconds, and every queued bag is unreclaimed garbage *)
      threshold =
        (if config.async_reclaim then grain else config.reclaim_threshold);
      orphans = Orphanage.create ();
      pending = Retire_bag.create E.dummy;
      async = None;
    }

  let threshold t = t.threshold

  let register t =
    {
      bag =
        Retire_bag.create ~capacity:(2 * t.config.reclaim_threshold) E.dummy;
      since_pass = 0;
    }

  let bag l = l.bag
  let length l = Retire_bag.length l.bag

  let push l e =
    Retire_bag.push l.bag e;
    l.since_pass <- l.since_pass + 1

  let begin_pass t l =
    Stats.note_peaks t.stats;
    Orphanage.adopt_into t.orphans ~dst:l.bag;
    l.since_pass <- 0

  (* Collector drain: fold the [n] handed-off bags (plus any orphans) into
     [pending], then run the scheme's pass ONCE for the whole batch — the
     cross-domain amortization of its snapshot, fence or epoch advance
     that the inline path cannot have. Runs only on the collector domain;
     returns the still-pending count. *)
  let drain t pass bags n =
    for i = 0 to n - 1 do
      Retire_bag.transfer ~src:bags.(i) ~dst:t.pending
    done;
    Orphanage.adopt_into t.orphans ~dst:t.pending;
    if not (Retire_bag.is_empty t.pending) then begin
      Stats.note_peaks t.stats;
      pass t.pending
    end;
    let left = Retire_bag.length t.pending in
    if Trace.enabled () then Trace.emit Trace.Drain (-1) n left;
    left

  let start t ?(on_handoff = ignore) ~drain:pass () =
    if t.config.async_reclaim then
      t.async <-
        Some
          {
            ring =
              Collector.spawn ~capacity:t.config.handoff_capacity
                ~length:Retire_bag.length ~drain:(drain t pass)
                ~dummy:(Retire_bag.create ~capacity:1 E.dummy)
                ();
            on_handoff;
          }

  (* Fold every queued bag into [dst] so the caller's imminent pass covers
     them too: the ring drains even when the collector is starved of cpu or
     dead, pinning async peak garbage near the inline envelope. *)
  let absorb_queued ring ~dst =
    let rec go () =
      match Collector.steal ring with
      | Some b ->
          Retire_bag.transfer ~src:b ~dst;
          Collector.recycle ring b;
          go ()
      | None -> ()
    in
    go ()

  (* The ring refused the bag: keep accumulating until the configured
     baseline's worth of pushes since the last pass, so a starved collector
     degrades this path to exactly the inline cadence, never a denser one. *)
  let fallback t ring l ~pass h =
    if l.since_pass >= t.config.reclaim_threshold then begin
      absorb_queued ring ~dst:l.bag;
      pass h
    end

  let reclaim_or_handoff t l ~pass h =
    match t.async with
    | None -> pass h
    | Some { ring; on_handoff } when Collector.running ring ->
        if Collector.late ring then begin
          Collector.note_fallback ring;
          absorb_queued ring ~dst:l.bag;
          pass h
        end
        else
          let full = l.bag in
          let len = Retire_bag.length full in
          (* Only small bags enter the ring. A bag that grew toward baseline
             during a ring-full spell — or that carries unripe epoch
             survivors after an inline pass — would park a near-baseline
             slug of garbage in the queue behind a starved collector.
             Oversized stragglers finish the inline path instead, which
             absorbs the queue anyway. *)
          if len <= 2 * t.grain && Collector.offer ring full then begin
            (* the ring owns [full] now; replace it before the next push *)
            l.bag <-
              (match Collector.take_bag ring with
              | Some b -> b
              | None -> Retire_bag.create ~capacity:(2 * t.grain) E.dummy);
            l.since_pass <- 0;
            if Trace.enabled () then
              Trace.emit Trace.Handoff (-1) len (Collector.occupancy ring);
            on_handoff ()
          end
          else begin
            (* the hook runs on a refused offer too: queued and local
               garbage keeps ripening while the ring is backed up *)
            on_handoff ();
            fallback t ring l ~pass h
          end
    | Some { ring; _ } ->
        Collector.note_fallback ring;
        fallback t ring l ~pass h

  let donate t l = Orphanage.add t.orphans l.bag

  let salvage bag =
    match E.salvage with
    | Some (uid, skip) -> Retire_bag.salvage ~uid ~skip bag
    | None -> ()

  let report_crashed t l =
    salvage l.bag;
    donate t l

  let shutdown t =
    match t.async with
    | None -> ()
    | Some { ring; _ } ->
        Collector.shutdown ring ~recover:(Orphanage.add t.orphans);
        (* The pending bag may hold survivors (blocks still protected at the
           final drain) or be torn (collector killed mid-filter): salvage in
           place, then donate it whole for inline passes to adopt. *)
        salvage t.pending;
        Orphanage.add t.orphans t.pending

  let collector_stats t = Option.map (fun a -> Collector.stats a.ring) t.async
end
