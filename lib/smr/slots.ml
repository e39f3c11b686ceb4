module Mem = Smr_core.Mem

(* A slot holds the protected block's uid, an immediate, or [empty]. An
   immediate store skips the write barrier that a header pointer would pay
   (darkening the old major-heap block on every protect), and a plain store
   skips the C call and locked exchange of [Atomic.set]. The owner's store
   followed by its validating link load is the paper's light fence (program
   order only); every reclaimer issues [Fence.heavy] between unlinking what
   it may free and the snapshot that reads these fields (DESIGN.md §8). *)
type slot = {
  (* smr-lint: allow R3 — intended single-writer race: the owner's plain store is ordered before any hazard snapshot by the reclaimer's Fence.heavy (membarrier) under x86-64 TSO *)
  mutable uid : int;
}

let empty = -1

let chunk_size = 64

(* [active] gates scanning: a chunk whose owner unregistered is kept in the
   registry (scanners may still hold the list) but marked inactive, so dead
   slots stop being walked; it is parked in [spare] for the next register. *)
type chunk = { slots : slot array; active : bool Atomic.t }

type registry = {
  chunks : chunk list Atomic.t;
  spare : chunk list Atomic.t;
}

type local = {
  registry : registry;
  dom : int; (* registering domain, stamped on Crash trace events *)
  mutable my_chunks : chunk list;
  mutable free : slot list;
  mutable owned : int; (* slots handed out, for diagnostics *)
}

let create () = { chunks = Atomic.make []; spare = Atomic.make [] }

let rec push_chunk registry chunk =
  let cur = Atomic.get registry.chunks in
  if not (Atomic.compare_and_set registry.chunks cur (chunk :: cur)) then
    push_chunk registry chunk

let new_chunk () =
  {
    slots = Array.init chunk_size (fun _ -> { uid = empty });
    active = Atomic.make true;
  }

(* Reuse a parked chunk if any, else mint one and publish it. Reactivation
   (SC store) happens before any slot of the chunk can be set, so a scanner
   that read [active = false] can only have missed protections published
   after its snapshot — the standard protect-after-scan race, which
   protect/validate already handles. *)
let rec take_chunk registry =
  match Atomic.get registry.spare with
  | [] ->
      let chunk = new_chunk () in
      push_chunk registry chunk;
      chunk
  | (chunk :: rest) as cur ->
      if Atomic.compare_and_set registry.spare cur rest then begin
        Atomic.set chunk.active true;
        chunk
      end
      else take_chunk registry

let register registry =
  let chunk = take_chunk registry in
  {
    registry;
    dom = (Domain.self () :> int);
    my_chunks = [ chunk ];
    free = Array.to_list chunk.slots;
    owned = 0;
  }

let dom local = local.dom

let acquire local =
  match local.free with
  | s :: rest ->
      local.free <- rest;
      local.owned <- local.owned + 1;
      s
  | [] ->
      let chunk = take_chunk local.registry in
      local.my_chunks <- chunk :: local.my_chunks;
      local.free <- List.tl (Array.to_list chunk.slots);
      local.owned <- local.owned + 1;
      chunk.slots.(0)

module Trace = Obs.Trace

(* [set] and [clear] inline into their callers and test the combined
   hook word once ([hook_flags], bound here so the test is one load off
   this module's block plus the atomic read). While the word is zero the
   function is the store alone ([set_disarmed]); any armed concern —
   tracing, a fault plan, the scheduler — takes the out-of-line
   instrumented copy, which keeps the armed order: Unprotect event, store,
   [Fault.Protect] hit. One test instead of one per concern leaves one
   reachable call instead of two, and every reachable call makes the loop
   around it spill its registers.

   The Unprotect event must be emitted BEFORE the store that withdraws the
   protection: any reclaimer that observes the withdrawal (and may then
   free) draws its Free sequence number after ours, so the trace-replay
   checker never sees a Free inside a protection window of a correct run
   (see Obs.Trace on emission-order discipline). *)
let hook_flags = Fault.Hook.flags

let trace_unprotect slot =
  if Trace.enabled () then begin
    let prev = slot.uid in
    if prev <> empty then Trace.emit Trace.Unprotect prev 0 0
  end

let[@inline never] set_instrumented slot hdr =
  trace_unprotect slot;
  slot.uid <- Mem.uid hdr;
  (* Crash window: the protection is published, nothing has been validated
     or released. A kill leaves the slot set until a reaper clears it; a
     stall parks the victim with the hazard held. *)
  if Fault.enabled () then Fault.hit Fault.Protect

let[@inline] set_disarmed slot hdr = slot.uid <- Mem.uid hdr

let[@inline] set slot hdr =
  if Atomic.get hook_flags = 0 then set_disarmed slot hdr
  else set_instrumented slot hdr

let[@inline never] clear_instrumented slot =
  trace_unprotect slot;
  slot.uid <- empty

let[@inline] clear slot =
  if Atomic.get hook_flags = 0 then slot.uid <- empty
  else clear_instrumented slot

let always_valid _ = true

let release local slot =
  clear slot;
  local.owned <- local.owned - 1;
  local.free <- slot :: local.free

let rec park_chunk registry chunk =
  let cur = Atomic.get registry.spare in
  if not (Atomic.compare_and_set registry.spare cur (chunk :: cur)) then
    park_chunk registry chunk

let unregister local =
  List.iter
    (fun chunk ->
      Array.iter clear chunk.slots;
      Atomic.set chunk.active false;
      park_chunk local.registry chunk)
    local.my_chunks;
  local.my_chunks <- [];
  local.free <- [];
  local.owned <- 0

(* Same motions as [unregister], but run by a surviving thread over a dead
   handle's slots. Sound only once the owner is actually gone (it would
   race the owner's own set/clear otherwise) and the dead thread's pending
   invalidation work has been completed on its behalf — see the schemes'
   [report_crashed]. *)
let reap = unregister

(* --- The hazard scan ----------------------------------------------------- *)

(* A reusable scratch buffer (one per reclaiming handle): snapshot every
   protected uid into an int array, sort once, binary-search each retired
   uid — Michael's original amortized-scan optimization, with zero
   allocation per reclaim once the buffer has grown to its working size. *)
type scan = { mutable uids : int array; mutable len : int }

let scan_create () = { uids = Array.make 64 0; len = 0 }

let scan_push scan uid =
  let n = Array.length scan.uids in
  if scan.len = n then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit scan.uids 0 bigger 0 n;
    scan.uids <- bigger
  end;
  scan.uids.(scan.len) <- uid;
  scan.len <- scan.len + 1

(* In-place quicksort (median-of-three, insertion sort below 16) over the
   live prefix: Array.sort would drag the stale tail of the scratch buffer
   into the sort. *)
let sort_prefix (a : int array) len =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  in
  let rec qsort lo hi =
    if hi - lo < 16 then insertion lo hi
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(hi) < a.(lo) then swap hi lo;
      if a.(hi) < a.(mid) then swap hi mid;
      let pivot = a.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.(!i) < pivot do
          incr i
        done;
        while a.(!j) > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
  in
  if len > 1 then qsort 0 (len - 1)

let scan_snapshot registry scan =
  scan.len <- 0;
  List.iter
    (fun chunk ->
      if Atomic.get chunk.active then
        Array.iter
          (fun slot ->
            let uid = slot.uid in
            if uid <> empty then scan_push scan uid)
          chunk.slots)
    (Atomic.get registry.chunks);
  sort_prefix scan.uids scan.len

let scan_mem scan uid =
  let a = scan.uids in
  let lo = ref 0 and hi = ref (scan.len - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    let v = a.(mid) in
    if v = uid then found := true
    else if v < uid then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let scan_size scan = scan.len

let total_slots registry = chunk_size * List.length (Atomic.get registry.chunks)
