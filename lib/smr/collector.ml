(* Background collector domain with a bounded MPSC bag-handoff ring.

   Mutators hand over *full retire bags* (one pointer through the ring, no
   per-handoff allocation); the collector dequeues them in batches and runs
   the scheme-supplied [drain] callback, which pays one hazard snapshot /
   heavy fence for the whole batch. The ring is Vyukov's bounded MPMC
   queue: per-cell sequence atomics arbitrate, so a full queue is detected
   in one read and [offer] never blocks — the mutator falls back to inline
   reclamation instead, which is what keeps peak garbage bounded when the
   collector is stalled or dead (the [Fault.Collector] point injects
   exactly those two states). The consumer side is genuinely
   multi-consumer (head is CASed): a mutator already paying a baseline
   inline scan may [steal] queued bags and amortize them into the same
   snapshot, so queued garbage drains instead of aging when the collector
   is starved of cpu.

   Generic in the bag element: HP/HP++ hand [Mem.header Retire_bag.t]s, EBR
   deferred-thunk bags, PEBR epoch-stamped ones. The module never looks
   inside a bag; all scheme knowledge lives in the [drain] closure, which
   runs only on the collector domain. *)

type state = Running | Stopping | Stopped | Dead

(* Fixed-bucket histogram, written only by the collector domain (every
   [cycle] runs there), read concurrently by the metrics sampler — hence
   atomics per bucket rather than a lock. [counts] are per-bucket
   (cumulated at read time); values above the last edge land in the
   implicit +Inf bucket, i.e. in [count] only. *)
type hist = {
  edges : float array; (* ascending upper bounds *)
  bucket_counts : int Atomic.t array;
  hcount : int Atomic.t;
  hsum : int Atomic.t; (* in the recorded unit (ns, passes) *)
}

let hist_make edges =
  {
    edges;
    bucket_counts = Array.map (fun _ -> Atomic.make 0) edges;
    hcount = Atomic.make 0;
    hsum = Atomic.make 0;
  }

let hist_record h v n =
  let rec find i =
    if i >= Array.length h.edges then ()
    else if float_of_int v <= h.edges.(i) then
      ignore (Atomic.fetch_and_add h.bucket_counts.(i) n)
    else find (i + 1)
  in
  find 0;
  ignore (Atomic.fetch_and_add h.hcount n);
  ignore (Atomic.fetch_and_add h.hsum (v * n))

(* Drain durations recorded in ns: 1us .. 1s edges. *)
let duration_edges = [| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

(* Garbage age in scan passes survived before the free. *)
let age_edges = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64. |]

type 'bag t = {
  (* ring: cell [i] is writable by a producer when seqs.(i) = pos, readable
     by the consumer when seqs.(i) = pos + 1, recycled at pos + cap *)
  seqs : int Atomic.t array;
  slots : 'bag array;
  tail : int Atomic.t; (* next enqueue position (producers CAS) *)
  head : int Atomic.t; (* next dequeue position (consumers CAS) *)
  state : state Atomic.t;
  pool : 'bag list Atomic.t; (* empty drained bags, recycled to mutators *)
  scratch : 'bag array; (* consumer-private batch buffer *)
  drain : 'bag array -> int -> int;
  dummy : 'bag;
  length : ('bag -> int) option; (* bag occupancy, for garbage accounting *)
  pending_now : int Atomic.t; (* scheme-pending headers after last cycle *)
  pass_age : int Atomic.t; (* cycles the current survivors have seen *)
  drain_duration : hist;
  garbage_age : hist;
  handoffs : int Atomic.t;
  fallbacks : int Atomic.t;
  drains : int Atomic.t;
  drained_bags : int Atomic.t;
  steals : int Atomic.t;
  (* smr-lint: allow R3 — written once right after Domain.spawn, before any other domain sees [t]; joined only by the (single) shutdown caller *)
  mutable domain : unit Domain.t option;
  (* smr-lint: allow R3 — touched only under shutdown's winner CAS, never concurrently *)
  mutable joined : bool;
}

let capacity t = Array.length t.slots
let occupancy t = max 0 (Atomic.get t.tail - Atomic.get t.head)
let running t = Atomic.get t.state = Running

(* Mutator assist: a collector with [late_bags] bags already queued when a
   mutator comes to hand off another is behind the retire rate. The
   mutator then absorbs the queue and runs the pass itself instead of
   queueing more, so a mutator faster than the collector cannot outrun it
   and queued garbage stays within two bags of the inline envelope. A ring
   of at most [late_bags] cells already has that bound: it is full at two
   bags, [offer] fails, and the fallback absorbs the queue at the inline
   baseline — there the assist would only turn every handoff into an
   inline pass. *)
let late_bags = 2
let late t = capacity t > late_bags && occupancy t >= late_bags
let dead t = Atomic.get t.state = Dead

(* Producer side. Returns false — caller reclaims inline — when the queue
   is full or the collector is no longer accepting. *)
let rec offer t bag =
  if Atomic.get t.state <> Running then begin
    Atomic.incr t.fallbacks;
    false
  end
  else begin
    let pos = Atomic.get t.tail in
    let i = pos mod capacity t in
    let s = Atomic.get t.seqs.(i) in
    if s = pos then
      if Atomic.compare_and_set t.tail pos (pos + 1) then begin
        t.slots.(i) <- bag;
        Atomic.set t.seqs.(i) (pos + 1);
        Atomic.incr t.handoffs;
        true
      end
      else offer t bag (* lost the cell race; retry *)
    else if s < pos then begin
      (* cell not yet recycled: ring is full *)
      Atomic.incr t.fallbacks;
      false
    end
    else offer t bag (* tail moved under us; retry *)
  end

(* Consumer side: the collector's drain loop, stealing mutators, and the
   shutdown salvage all dequeue, so head is CASed — the winner owns cell
   [i] exclusively until it recycles the sequence to [pos + capacity]. *)
let rec dequeue t =
  let pos = Atomic.get t.head in
  let i = pos mod capacity t in
  let s = Atomic.get t.seqs.(i) in
  if s = pos + 1 then
    if Atomic.compare_and_set t.head pos (pos + 1) then begin
      let bag = t.slots.(i) in
      t.slots.(i) <- t.dummy;
      Atomic.set t.seqs.(i) (pos + capacity t);
      Some bag
    end
    else dequeue t (* lost the cell race; retry *)
  else if s <= pos then None (* empty (or a producer is mid-publish) *)
  else dequeue t (* head moved under us; retry *)

let dequeue_batch t =
  let n = ref 0 in
  let more = ref true in
  while !more && !n < Array.length t.scratch do
    match dequeue t with
    | Some bag ->
        t.scratch.(!n) <- bag;
        incr n
    | None -> more := false
  done;
  !n

let rec pool_push t bag =
  let cur = Atomic.get t.pool in
  if not (Atomic.compare_and_set t.pool cur (bag :: cur)) then pool_push t bag

let rec take_bag t =
  match Atomic.get t.pool with
  | [] -> None
  | bag :: rest as cur ->
      if Atomic.compare_and_set t.pool cur rest then Some bag else take_bag t

let note_fallback t = Atomic.incr t.fallbacks

(* A mutator about to pay a baseline inline scan anyway folds queued bags
   into that same snapshot. Works on a dead collector too — its queue
   would otherwise age until shutdown. *)
let steal t =
  match dequeue t with
  | Some _ as r ->
      Atomic.incr t.steals;
      r
  | None -> None

let recycle = pool_push

type counters = {
  handoffs : int;
  fallbacks : int;
  drains : int;
  drained_bags : int;
  steals : int;
}

let counters (t : _ t) =
  {
    handoffs = Atomic.get t.handoffs;
    fallbacks = Atomic.get t.fallbacks;
    drains = Atomic.get t.drains;
    drained_bags = Atomic.get t.drained_bags;
    steals = Atomic.get t.steals;
  }

type histogram = { buckets : (float * int) list; count : int; sum : float }

let hist_read ?(scale = 1.0) h =
  let cum = ref 0 in
  let buckets =
    Array.to_list
      (Array.mapi
         (fun i le ->
           cum := !cum + Atomic.get h.bucket_counts.(i);
           (le *. scale, !cum))
         h.edges)
  in
  {
    buckets;
    count = Atomic.get h.hcount;
    sum = float_of_int (Atomic.get h.hsum) *. scale;
  }

type stats = {
  ring_occupancy : int;
  ring_capacity : int;
  pending : int;
  pass_age : int;
  ctrs : counters;
  drain_duration : histogram;  (* seconds *)
  garbage_age : histogram;  (* scan passes survived *)
}

let stats t =
  {
    ring_occupancy = occupancy t;
    ring_capacity = capacity t;
    pending = Atomic.get t.pending_now;
    pass_age = Atomic.get t.pass_age;
    ctrs = counters t;
    drain_duration = hist_read ~scale:1e-9 t.drain_duration;
    garbage_age = hist_read t.garbage_age;
  }

(* Run one drain cycle over [n] dequeued bags, then recycle the (now empty)
   bags to the mutator pool. Returns the scheme's still-pending count.

   Garbage accounting rides the cycle boundary: with a [length] hook the
   arrivals are counted before the drain, and freed = previous pending +
   arrived - still pending (the drain callback moves every bag's contents
   into scheme-private pending before reclaiming, so the identity holds
   exactly). Ages are a cohort approximation — of the blocks freed this
   cycle, up to [arrived] are new (age 0) and the rest are survivors that
   have lived [pass_age] scan passes; exact per-block ages would need a
   stamp per header, which the hot path must not pay for. *)
let cycle t n =
  let arrived =
    match t.length with
    | None -> 0
    | Some len ->
        let s = ref 0 in
        for i = 0 to n - 1 do
          s := !s + len t.scratch.(i)
        done;
        !s
  in
  let t0 = Unix.gettimeofday () in
  let pending = t.drain t.scratch n in
  hist_record t.drain_duration
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
    1;
  let prev = Atomic.get t.pending_now in
  Atomic.set t.pending_now pending;
  (match t.length with
  | Some _ ->
      let freed = max 0 (prev + arrived - pending) in
      if freed > 0 then begin
        let fresh = min freed arrived in
        let aged = freed - fresh in
        if fresh > 0 then hist_record t.garbage_age 0 fresh;
        if aged > 0 then hist_record t.garbage_age (Atomic.get t.pass_age) aged
      end
  | None -> ());
  if pending = 0 then Atomic.set t.pass_age 0 else Atomic.incr t.pass_age;
  for i = 0 to n - 1 do
    pool_push t t.scratch.(i);
    t.scratch.(i) <- t.dummy
  done;
  Atomic.incr t.drains;
  if n > 0 then ignore (Atomic.fetch_and_add t.drained_bags n);
  pending

let run t =
  let pending = ref 0 in
  let idle = ref 0 in
  (try
     let live = ref true in
     while !live do
       match Atomic.get t.state with
       | Stopping | Stopped | Dead ->
           (* Final drain: empty the ring, then a fixed number of empty
              cycles so epoch-based schemes can push their grace periods
              forward. Bounded on purpose — blocks a live mutator still
              protects stay in the scheme's pending bag, and the scheme's
              shutdown donates them to the orphanage. *)
           let n = dequeue_batch t in
           if n > 0 then pending := cycle t n
           else begin
             for _ = 1 to 3 do
               pending := cycle t 0
             done;
             live := false
           end
       | Running ->
           if Fault.enabled () then Fault.hit Fault.Collector;
           let n = dequeue_batch t in
           if n > 0 then begin
             pending := cycle t n;
             idle := 0
           end
           else if !pending > 0 then begin
             (* Empty retry over leftover garbage: it is waiting on external
                state (hazards withdrawn, epochs advanced), so pace the
                rescans instead of spinning snapshots/epoch advances. *)
             pending := cycle t 0;
             Unix.sleepf 1e-4
           end
           else begin
             incr idle;
             if !idle < 256 then Domain.cpu_relax ()
             else begin
               (* park briefly instead of burning the core; 200us keeps
                  drain latency far below any retire-burst timescale *)
               idle := 0;
               Unix.sleepf 2e-4
             end
           end
     done;
     Atomic.set t.state Stopped
   with _ ->
     (* Fault.Killed (the chaos collector crash) or any drain exception:
        leave queued bags where they are for shutdown to salvage, flip to
        Dead so every subsequent offer fails fast into the inline path. *)
     Atomic.set t.state Dead)

let spawn ?(capacity = 8) ?length ~drain ~dummy () =
  if capacity < 1 then invalid_arg "Collector.spawn: capacity";
  (* The sequence protocol needs >= 2 cells: with one cell, "readable at
     pos" (seq = pos + 1) and "writable at pos + 1" (seq = pos + 1) are the
     same state, so a second producer would overwrite the unconsumed bag
     and its retired blocks would leak. *)
  let capacity = max 2 capacity in
  let t =
    {
      seqs = Array.init capacity Atomic.make;
      slots = Array.make capacity dummy;
      tail = Atomic.make 0;
      head = Atomic.make 0;
      state = Atomic.make Running;
      pool = Atomic.make [];
      scratch = Array.make capacity dummy;
      drain;
      dummy;
      length;
      pending_now = Atomic.make 0;
      pass_age = Atomic.make 0;
      drain_duration = hist_make duration_edges;
      garbage_age = hist_make age_edges;
      handoffs = Atomic.make 0;
      fallbacks = Atomic.make 0;
      drains = Atomic.make 0;
      drained_bags = Atomic.make 0;
      steals = Atomic.make 0;
      domain = None;
      joined = false;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> run t));
  t

let shutdown t ~recover =
  (match Atomic.get t.state with
  | Running -> ignore (Atomic.compare_and_set t.state Running Stopping)
  | Stopping | Stopped | Dead -> ());
  (match t.domain with
  | Some d when not t.joined ->
      t.joined <- true;
      Domain.join d
  | _ -> ());
  (* After the join the ring has a single owner again: salvage anything a
     dead collector left queued. *)
  let rec drain_leftovers () =
    match dequeue t with
    | Some bag ->
        recover bag;
        drain_leftovers ()
    | None -> ()
  in
  drain_leftovers ()
