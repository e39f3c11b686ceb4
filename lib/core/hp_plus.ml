module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Fence = Smr_core.Fence
module Slots = Smr.Slots
module Trace = Obs.Trace
module R = Smr.Reclaim.Make (Smr.Reclaim.Header)

let name = "HP++"
let robust = true
let supports_optimistic = true
let needs_protection = true
let counts_references = false

type t = {
  registry : Slots.registry;
  stats : Stats.t;
  config : Smr.Smr_intf.config;
  fence_epoch : int Atomic.t;
  unlink_counter : int Atomic.t; (* globally unique batch ids, trace only *)
  (* The invalidate threshold is not part of the pipeline: DoInvalidation
     is inherently handle-local (it revokes the handle's own frontier
     slots), so the collector cannot amortize it. *)
  reclaim : R.t;
}

(* One successful TryUnlink, awaiting DoInvalidation: the closure invalidates
   every unlinked node; [hdrs] are their headers; [frontier_slots] hold the
   protections that must outlive invalidation (paper: thread-local
   [unlinkeds]). *)
type deferred = {
  invalidate_all : unit -> unit;
  hdrs : Mem.header list;
  frontier_slots : Slots.slot list;
  batch_id : int; (* ties this batch's Unlink/Invalidate trace events *)
}

type handle = {
  shared : t;
  local : Slots.local;
  mutable unlinkeds : deferred list;
  mutable unlinks_since_invalidation : int;
  mutable unlinks_since_reclaim : int;
  retireds : R.local;
  scan : Slots.scan;
  mutable epoched_hps : (int * Slots.slot list) list;
}

type guard = Slots.slot

let stats t = t.stats

(* Critical sections: HP-family schemes have none. *)
let crit_enter _ = ()
let crit_exit _ = ()
let crit_refresh _ = ()
let protection_valid = Slots.always_valid

let guard h = Slots.acquire h.local
let protect = Slots.set
let release = Slots.clear

(* Algorithm 5 FenceEpoch: a heavy fence, then the epoch increment that
   drives piggybacked hazard revocation. The fence must come first (Lemma
   A.2): DoInvalidation releases a batch tagged with epoch [e] once it
   reads [e + 2], and only fence-then-CAS guarantees that a heavy fence
   completed between the batch's invalidation and that release. *)
let heavy_fence t =
  Fence.heavy t.stats;
  let epoch = Atomic.get t.fence_epoch in
  if Atomic.compare_and_set t.fence_epoch epoch (epoch + 1) then
    Trace.emit Trace.Epoch_advance (-1) (epoch + 1) 0

(* The fence owed before a hazard snapshot: FenceEpoch under Algorithm 5; a
   bare heavy fence under Algorithm 3, whose DoInvalidation fence does not
   cover blocks retired through plain [retire] (Treiber stack, MS queue). *)
let fence_before_scan t =
  if t.config.epoched_fence then heavy_fence t else Fence.heavy t.stats

(* Algorithm 5 ReadEpoch: a light fence bracketed by two reads that must
   agree, guaranteeing a heavy fence separates any two reads two epochs
   apart. *)
let read_epoch t =
  let rec loop epoch =
    let fresh = Atomic.get t.fence_epoch in
    if fresh = epoch then epoch else loop fresh
  in
  loop (Atomic.get t.fence_epoch)

let fence_epoch t = Atomic.get t.fence_epoch

let release_epoched h =
  List.iter
    (fun (_, slots) -> List.iter (Slots.release h.local) slots)
    h.epoched_hps;
  h.epoched_hps <- []

(* Invalidate events are emitted after the links are actually marked, so
   in merged seq order a batch member's Invalidate always precedes the Free
   that the trace checker pairs it with. *)
let invalidate_batch d =
  d.invalidate_all ();
  if Trace.enabled () then
    List.iter
      (fun hdr -> Trace.emit Trace.Invalidate (Mem.uid hdr) d.batch_id 0)
      d.hdrs

(* Paper Algorithm 3 lines 22-31 / Algorithm 5 lines 3-10. *)
let do_invalidation h =
  let t = h.shared in
  match h.unlinkeds with
  | [] -> h.unlinks_since_invalidation <- 0
  | batch ->
      h.unlinkeds <- [];
      h.unlinks_since_invalidation <- 0;
      List.iter invalidate_batch batch;
      let hdrs = List.concat_map (fun d -> d.hdrs) batch in
      let slots = List.concat_map (fun d -> d.frontier_slots) batch in
      if t.config.epoched_fence then begin
        (* Revoke lazily: tag this batch's frontier slots with the current
           epoch and only release batches at least two epochs old — a heavy
           fence is guaranteed to have happened in between (Lemma A.2). In
           async mode the collector's per-drain fence keeps this epoch
           moving even when the mutators never reclaim inline. *)
        let epoch = read_epoch t in
        let stale, fresh =
          List.partition (fun (e, _) -> e + 2 <= epoch) h.epoched_hps
        in
        List.iter (fun (_, ss) -> List.iter (Slots.release h.local) ss) stale;
        h.epoched_hps <- (epoch, slots) :: fresh
      end
      else begin
        (* Algorithm 3: one fence per batch, then revoke immediately. *)
        Fence.heavy t.stats;
        List.iter (Slots.release h.local) slots
      end;
      List.iter (R.push h.retireds) hdrs

(* Paper Algorithm 3 lines 32-35 / Algorithm 5 lines 11-16. *)
let reclaim h =
  let t = h.shared in
  R.begin_pass t.reclaim h.retireds;
  h.unlinks_since_reclaim <- 0;
  fence_before_scan t;
  if t.config.epoched_fence then release_epoched h;
  Smr.Reclaim.hazard_pass t.stats t.registry h.scan ~header:Fun.id
    (R.bag h.retireds)

let create ?(config = Smr.Smr_intf.default_config) () =
  let stats = Stats.create () in
  let t =
    {
      registry = Slots.create ();
      stats;
      config;
      fence_epoch = Atomic.make 0;
      unlink_counter = Atomic.make 0;
      reclaim = R.create config stats;
    }
  in
  let cscan = Slots.scan_create () in
  (* Collector drain: one fence-epoch advance and one hazard snapshot
     amortized over every handed-off bag — Algorithm 5's fence amortization
     extended across domains. The mutators' epoched frontier slots are
     revoked lazily on their own DoInvalidation calls as this epoch
     moves. *)
  R.start t.reclaim
    ~drain:(fun bag ->
      fence_before_scan t;
      Smr.Reclaim.hazard_pass t.stats t.registry cscan ~header:Fun.id bag)
    ();
  t

let register shared =
  {
    shared;
    local = Slots.register shared.registry;
    unlinkeds = [];
    unlinks_since_invalidation = 0;
    unlinks_since_reclaim = 0;
    retireds = R.register shared.reclaim;
    scan = Slots.scan_create ();
    epoched_hps = [];
  }

(* The retire bag crossed the threshold: hand it to the collector or run
   the inline pass (see {!Smr.Reclaim}). *)
let reclaim_or_handoff h =
  h.unlinks_since_reclaim <- 0;
  R.reclaim_or_handoff h.shared.reclaim h.retireds ~pass:reclaim h

let maybe_collect h =
  let c = h.shared.config in
  if h.unlinks_since_invalidation >= c.invalidate_threshold then
    do_invalidation h;
  (* Only pay for a reclaim pass (hazard snapshot + sort + heavy fence)
     when the bag holds something to free: with invalidate_threshold >
     reclaim_threshold, the unlink counter alone used to trip a full pass
     every reclaim_threshold unlinks while every header was still parked in
     [unlinkeds] awaiting invalidation, freeing nothing. *)
  let threshold = R.threshold h.shared.reclaim in
  let retired = R.length h.retireds in
  if
    (h.unlinks_since_reclaim >= threshold || retired >= threshold)
    && retired > 0
  then reclaim_or_handoff h

let retire h hdr =
  Mem.retire_mark h.shared.stats hdr;
  R.push h.retireds hdr;
  if R.length h.retireds >= R.threshold h.shared.reclaim then
    reclaim_or_handoff h

let retire_with_children h hdr ~children:_ = retire h hdr
let incr_ref _ = ()

let try_unlink h ~frontier ~do_unlink ~node_header ~invalidate =
  let slots =
    List.map
      (fun hdr ->
        let s = Slots.acquire h.local in
        Slots.set s hdr;
        s)
      frontier
  in
  match do_unlink () with
  | None ->
      List.iter (Slots.release h.local) slots;
      false
  | Some nodes ->
      let hdrs = List.map node_header nodes in
      let batch_id =
        if Trace.enabled () then Atomic.fetch_and_add h.shared.unlink_counter 1
        else 0
      in
      List.iter
        (fun hdr ->
          Mem.retire_mark h.shared.stats hdr;
          if Trace.enabled () then Trace.emit Trace.Unlink (Mem.uid hdr) batch_id 0)
        hdrs;
      h.unlinkeds <-
        {
          invalidate_all = (fun () -> invalidate nodes);
          hdrs;
          frontier_slots = slots;
          batch_id;
        }
        :: h.unlinkeds;
      h.unlinks_since_invalidation <- h.unlinks_since_invalidation + 1;
      h.unlinks_since_reclaim <- h.unlinks_since_reclaim + 1;
      (* Crash window: TryUnlink succeeded (nodes unlinked and marked
         retired, frontier slots held) but DoInvalidation has not run. A
         kill here is the paper's worst case — without recovery the batch
         leaks and its frontier stays protected forever. *)
      if Fault.enabled () then Fault.hit Fault.Unlink;
      maybe_collect h;
      true

let flush h =
  do_invalidation h;
  reclaim h

let unregister h =
  do_invalidation h;
  (* The frontier protections may still be needed by concurrent traversals
     only until their targets are invalidated, which do_invalidation just
     did; a final fence orders the revocation. *)
  heavy_fence h.shared;
  release_epoched h;
  reclaim h;
  R.donate h.shared.reclaim h.retireds;
  Slots.unregister h.local

let shutdown t = R.shutdown t.reclaim

(* Crash recovery. The dead thread's obligations are discharged in the
   order the protocol demands:
   1. its pending DoInvalidation batches run (invalidate-before-free for
      every node it unlinked);
   2. a heavy fence orders those invalidation marks before any protection
      withdrawal — the fence the dead thread would have paid;
   3. the crash is announced (trace), then its hazard slots — traversal
      guards and frontier protections alike — are reaped;
   4. its retire bag, possibly torn by a mid-reclaim death, is topped up
      with the just-invalidated unlinked nodes, salvaged in place (dedup by
      uid, skip already-freed) and donated whole to the orphanage.
   The unlinked headers cannot already sit in the bag: they only enter it
   through do_invalidation, which had not run for them — so salvage keeps
   every one of them. *)
let report_crashed h =
  let t = h.shared in
  List.iter invalidate_batch h.unlinkeds;
  let unlinked = List.concat_map (fun d -> d.hdrs) h.unlinkeds in
  h.unlinkeds <- [];
  h.unlinks_since_invalidation <- 0;
  heavy_fence t;
  let victim_dom = Slots.dom h.local in
  Trace.emit Trace.Crash (-1) victim_dom 0;
  h.epoched_hps <- [];
  Slots.reap h.local;
  List.iter (R.push h.retireds) unlinked;
  R.report_crashed t.reclaim h.retireds

let pending_unlinked h =
  List.fold_left (fun acc d -> acc + List.length d.hdrs) 0 h.unlinkeds

let pending_retired h = R.length h.retireds

let collector_stats t = R.collector_stats t.reclaim
