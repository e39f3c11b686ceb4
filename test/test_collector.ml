(* Tests for the asynchronous reclamation pipeline: the bounded MPSC
   handoff ring and collector domain (lib/smr/collector.ml), retire-bag
   growth/transfer/salvage, and the scheme-level contracts of the shared
   pipeline (lib/smr/reclaim.ml) on every scheme — clean shutdown drains
   everything, a stalled or dead collector degrades to inline reclamation
   at the inline cadence with bounded garbage and no lost or double-freed
   blocks. The fault plan is global, so every test touching it resets on
   entry. *)

module Mem = Smr_core.Mem
module Stats = Smr_core.Stats
module Pool = Smr_core.Domain_pool
module Collector = Smr.Collector
module Retire_bag = Smr.Retire_bag
module Trace = Obs.Trace
module Check = Obs.Check

let base = Smr.Smr_intf.default_config

(* --- retire bags: growth, transfer, in-place salvage --------------------- *)

(* Pin: bags grow past their initial capacity. A fallback path can keep
   pushing past the 2*reclaim_threshold a handle's bag was sized for (and
   a recycled bag is sized for twice the handoff grain); no push may drop
   entries. *)
let test_bag_growth () =
  let b = Retire_bag.create ~capacity:4 (-1) in
  for i = 0 to 99 do
    Retire_bag.push b i
  done;
  Alcotest.(check int) "grew past initial capacity" 100 (Retire_bag.length b);
  Alcotest.(check int) "order preserved" 57 (Retire_bag.get b 57);
  Retire_bag.clear b;
  Alcotest.(check bool) "clear empties" true (Retire_bag.is_empty b)

let test_bag_transfer () =
  let src = Retire_bag.create ~capacity:2 (-1) in
  let dst = Retire_bag.create ~capacity:2 (-1) in
  List.iter (Retire_bag.push dst) [ 10; 11 ];
  List.iter (Retire_bag.push src) [ 1; 2; 3; 4; 5 ];
  Retire_bag.transfer ~src ~dst;
  Alcotest.(check bool) "src emptied" true (Retire_bag.is_empty src);
  Alcotest.(check (list int)) "dst appended in order" [ 10; 11; 1; 2; 3; 4; 5 ]
    (Retire_bag.to_list dst);
  (* transferring an empty bag is a no-op *)
  Retire_bag.transfer ~src ~dst;
  Alcotest.(check int) "no-op on empty src" 7 (Retire_bag.length dst)

let test_bag_salvage_in_place () =
  let stats = Stats.create () in
  let a = Mem.make stats and b = Mem.make stats and c = Mem.make stats in
  Mem.retire_mark stats a;
  Mem.retire_mark stats b;
  Mem.retire_mark stats c;
  Mem.free_mark stats c;
  let bag = Retire_bag.create Mem.phantom in
  (* torn shape: compacted survivor, stale duplicate of it, a freed block,
     and dummy filler exposed by a mid-filter death *)
  List.iter (Retire_bag.push bag) [ a; b; a; c; Mem.phantom ];
  Retire_bag.salvage
    ~uid:Mem.uid
    ~skip:(fun h -> Mem.uid h = Mem.phantom_uid || Mem.is_freed h)
    bag;
  Alcotest.(check (list int)) "dedup, drop freed and phantom, keep order"
    [ Mem.uid a; Mem.uid b ]
    (List.map Mem.uid (Retire_bag.to_list bag))

(* --- the handoff ring and collector domain ------------------------------- *)

let test_ring_basic () =
  Fault.reset ();
  let drained = Atomic.make 0 in
  let mk () = Retire_bag.create ~capacity:4 0 in
  let c =
    Collector.spawn ~capacity:4
      ~drain:(fun bags n ->
        for i = 0 to n - 1 do
          ignore (Atomic.fetch_and_add drained (Retire_bag.length bags.(i)));
          Retire_bag.clear bags.(i)
        done;
        0)
      ~dummy:(mk ()) ()
  in
  Alcotest.(check bool) "spawned running" true (Collector.running c);
  Alcotest.(check int) "capacity as requested" 4 (Collector.capacity c);
  (* one-cell rings cannot tell full from writable; pin the clamp *)
  let tiny =
    Collector.spawn ~capacity:1 ~drain:(fun _ _ -> 0) ~dummy:(mk ()) ()
  in
  Alcotest.(check int) "capacity 1 clamped to 2" 2 (Collector.capacity tiny);
  Collector.shutdown tiny ~recover:ignore;
  for i = 1 to 10 do
    let b = match Collector.take_bag c with Some b -> b | None -> mk () in
    Retire_bag.push b i;
    (* the consumer is live, so a full ring is transient: spin until the
       offer lands *)
    while not (Collector.offer c b) do
      Domain.cpu_relax ()
    done
  done;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get drained < 10 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "every element drained" 10 (Atomic.get drained);
  Collector.shutdown c ~recover:(fun _ ->
      Alcotest.fail "clean shutdown left bags queued");
  Alcotest.(check bool) "stopped, not dead" false (Collector.dead c);
  let k = Collector.counters c in
  Alcotest.(check int) "handoffs counted" 10 k.Collector.handoffs;
  Alcotest.(check bool) "drains counted" true (k.Collector.drains > 0);
  Alcotest.(check int) "bags accounted" 10 k.Collector.drained_bags;
  (* idempotent *)
  Collector.shutdown c ~recover:(fun _ -> Alcotest.fail "second shutdown")

(* A stalled collector: the ring fills, [offer] rejects without blocking,
   and nothing handed over is lost — on release/shutdown every queued bag
   is either drained or recovered. *)
let test_ring_full_rejects_and_recovers () =
  Fault.reset ();
  let mk () = Retire_bag.create ~capacity:2 0 in
  let drained = ref 0 and recovered = ref 0 in
  let c =
    Collector.spawn ~capacity:2
      ~drain:(fun bags n ->
        for i = 0 to n - 1 do
          drained := !drained + Retire_bag.length bags.(i);
          Retire_bag.clear bags.(i)
        done;
        0)
      ~dummy:(mk ()) ()
  in
  Fault.arm ~point:Fault.Collector ~action:Fault.Stall ();
  Fault.await_stalled ();
  let offer_one v =
    let b = mk () in
    Retire_bag.push b v;
    Collector.offer c b
  in
  Alcotest.(check bool) "first offer fits" true (offer_one 1);
  Alcotest.(check bool) "second offer fits" true (offer_one 2);
  Alcotest.(check bool) "third rejected: ring full" false (offer_one 3);
  Alcotest.(check int) "occupancy at capacity" 2 (Collector.occupancy c);
  let k = Collector.counters c in
  Alcotest.(check int) "two handoffs" 2 k.Collector.handoffs;
  Alcotest.(check int) "one fallback" 1 k.Collector.fallbacks;
  Fault.release ();
  Collector.shutdown c ~recover:(fun b ->
      recovered := !recovered + Retire_bag.length b);
  Alcotest.(check int) "nothing lost" 2 (!drained + !recovered);
  Fault.reset ()

(* --- HP: clean shutdown drains everything, trace-checker clean ----------- *)

let test_hp_async_clean_shutdown () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 16; async_reclaim = true;
      handoff_capacity = 4 }
  in
  Trace.enable ~capacity:(1 lsl 16) ();
  let t = Hp.create ~config:cfg () in
  ignore
    (Pool.run ~n:3 (fun _ ->
         let h = Hp.register t in
         for _ = 1 to 500 do
           Hp.retire h (Mem.make (Hp.stats t))
         done;
         Hp.flush h;
         Hp.unregister h));
  Hp.shutdown t;
  (* the orphanage holds whatever shutdown donated; one surviving inline
     pass adopts and frees it — no hazards remain *)
  let survivor = Hp.register t in
  Hp.flush survivor;
  Alcotest.(check int) "zero residue after shutdown + survivor flush" 0
    (Stats.unreclaimed (Hp.stats t));
  Alcotest.(check int) "freed exactly what was allocated"
    (Stats.allocated (Hp.stats t))
    (Stats.freed (Hp.stats t));
  Hp.unregister survivor;
  Trace.disable ();
  let snap = Trace.snapshot () in
  Trace.reset ();
  let count k =
    Array.fold_left
      (fun acc (e : Trace.event) -> if e.Trace.kind = k then acc + 1 else acc)
      0 snap.Trace.events
  in
  Alcotest.(check bool) "handoffs traced" true (count Trace.Handoff > 0);
  Alcotest.(check bool) "drain cycles traced" true (count Trace.Drain > 0);
  (match Check.run_snapshot snap with
  | Ok _ -> ()
  | Error (v :: rest) ->
      Alcotest.failf "async trace violation: %s (+%d more)"
        (Format.asprintf "%a" Check.pp_violation v)
        (List.length rest)
  | Error [] -> assert false);
  match Hp.collector_stats t with
  | None -> Alcotest.fail "async HP has no collector"
  | Some { ctrs = k; _ } ->
      Alcotest.(check bool) "collector saw the handoffs" true
        (k.Collector.handoffs > 0)

(* --- every scheme: a stalled collector degrades to bounded inline passes - *)

let ctrs_of (type a) (module S : Smr.Smr_intf.S with type t = a) (t : a) =
  match S.collector_stats t with
  | None -> Alcotest.failf "async %s has no collector" S.name
  | Some st -> st.Collector.ctrs

(* After the fault is lifted: flush, unregister, shut the collector down,
   and let a surviving handle adopt and free every donated block. Three
   flushes let the epoch schemes push their grace periods past the last
   retirement. *)
let drain_to_zero (type a b)
    (module S : Smr.Smr_intf.S with type t = a and type handle = b) (t : a)
    (h : b) ~what =
  S.flush h;
  S.unregister h;
  S.shutdown t;
  let survivor = S.register t in
  S.flush survivor;
  S.flush survivor;
  S.flush survivor;
  Alcotest.(check int) (S.name ^ ": " ^ what) 0 (Stats.unreclaimed (S.stats t));
  Alcotest.(check int)
    (S.name ^ ": no block lost, none freed twice")
    (Stats.allocated (S.stats t))
    (Stats.freed (S.stats t));
  S.unregister survivor

let stalled_collector_inline_fallback (module S : Smr.Smr_intf.S) () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 8; async_reclaim = true;
      handoff_capacity = 1 }
  in
  let t = S.create ~config:cfg () in
  let h = S.register t in
  Fault.arm ~point:Fault.Collector ~action:Fault.Stall ();
  Fault.await_stalled ();
  for _ = 1 to 200 do
    S.retire h (Mem.make (S.stats t))
  done;
  let k = ctrs_of (module S) t in
  (* the requested capacity of 1 is clamped to the 2-cell minimum; the
     stalled ring fills, every further threshold crossing falls back
     inline, and the baseline scans steal the queued bags back out — so
     the ring cycles (handoffs keep landing) and no handed-off bag ever
     waits on the stalled domain *)
  Alcotest.(check bool) "handoffs landed" true (k.Collector.handoffs >= 2);
  Alcotest.(check bool) "fallbacks counted" true (k.Collector.fallbacks > 0);
  Alcotest.(check bool) "queued bags stolen into inline scans" true
    (k.Collector.steals > 0);
  Alcotest.(check int) "stall means the collector itself drained nothing" 0
    k.Collector.drained_bags;
  let peak = Stats.unreclaimed (S.stats t) in
  if peak > 64 then
    Alcotest.failf "%s: garbage %d not bounded by the inline fallback" S.name
      peak;
  Fault.release ();
  drain_to_zero (module S) t h ~what:"drains to zero once released";
  Fault.reset ()

(* --- every scheme: dead collector, queued bags salvaged, no double free -- *)

let collector_kill_salvage (module S : Smr.Smr_intf.S) () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 8; async_reclaim = true;
      handoff_capacity = 2 }
  in
  let t = S.create ~config:cfg () in
  let h = S.register t in
  Fault.arm ~point:Fault.Collector ~action:Fault.Kill ~after:3 ();
  (* the collector hits the point on every loop iteration, so the kill
     fires on its own; retire meanwhile to race handoffs against it *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Fault.fired ())) && Unix.gettimeofday () < deadline do
    S.retire h (Mem.make (S.stats t))
  done;
  Alcotest.(check bool) "collector killed" true (Fault.fired ());
  for _ = 1 to 160 do
    S.retire h (Mem.make (S.stats t))
  done;
  Alcotest.(check bool) "mutator fell back inline after the death" true
    ((ctrs_of (module S) t).Collector.fallbacks > 0);
  (* shutdown salvages anything the dead collector left queued or pending *)
  drain_to_zero (module S) t h ~what:"all garbage salvaged and freed";
  Fault.reset ()

(* --- epoch schemes: the fallback keeps the inline cadence ---------------- *)

(* The survivor ratchet (DESIGN.md §13). With the collector stalled and a
   second handle pinned in a critical section, nothing ripens: every inline
   pass leaves the whole bag behind. A fallback keyed on bag length would
   then rescan on every threshold crossing; the pass counter keeps it at
   one pass per [reclaim_threshold] retires. PEBR's neutralization is
   disabled (huge lag) so the pinned handle really holds the epoch. *)
let fallback_cadence (module S : Smr.Smr_intf.S) () =
  Fault.reset ();
  let thr = 64 in
  let cfg =
    { base with reclaim_threshold = thr; async_reclaim = true;
      neutralize_lag = 1_000_000 }
  in
  let t = S.create ~config:cfg () in
  let pinned = S.register t in
  S.crit_enter pinned;
  let h = S.register t in
  Fault.arm ~point:Fault.Collector ~action:Fault.Stall ();
  Fault.await_stalled ();
  Trace.enable ~capacity:(1 lsl 16) ();
  let n = 2_000 in
  for _ = 1 to n do
    S.retire h (Mem.make (S.stats t))
  done;
  Trace.disable ();
  let snap = Trace.snapshot () in
  Trace.reset ();
  let passes =
    Array.fold_left
      (fun acc (e : Trace.event) ->
        if e.Trace.kind = Trace.Reclaim_pass then acc + 1 else acc)
      0 snap.Trace.events
  in
  let bound = ((n + thr - 1) / thr) + 1 in
  Printf.printf "%s: %d retires, %d inline passes (bound %d)\n%!" S.name n
    passes bound;
  Alcotest.(check bool) "the fallback ran" true (passes > 0);
  if passes > bound then
    Alcotest.failf
      "%s: %d inline passes for %d retires exceed the inline cadence bound %d"
      S.name passes n bound;
  Alcotest.(check int) "nothing ripened: every retire still pending" n
    (Stats.unreclaimed (S.stats t));
  Fault.release ();
  S.crit_exit pinned;
  S.unregister pinned;
  drain_to_zero (module S) t h ~what:"drains to zero once released";
  Fault.reset ()

(* --- HP++: the mutator assist keeps a stalled collector's queue short ----- *)

module Hhs = Smr_ds.Hhslist.Make (Hp_plus)

(* One-domain HHSList churn (insert then remove, keys cycling over 64):
   the largest unreclaimed count seen after any operation. With [stall] the
   collector is parked for the whole run. *)
let hhs_churn_peak ?(stall = false) cfg =
  Fault.reset ();
  let t = Hp_plus.create ~config:cfg () in
  let l = Hhs.create t in
  let h = Hp_plus.register t in
  let lo = Hhs.make_local h in
  if stall then begin
    Fault.arm ~point:Fault.Collector ~action:Fault.Stall ();
    Fault.await_stalled ()
  end;
  let peak = ref 0 in
  for i = 1 to 5_000 do
    let k = i mod 64 in
    ignore (Hhs.insert l lo k k);
    ignore (Hhs.remove l lo k);
    peak := max !peak (Stats.unreclaimed (Hp_plus.stats t))
  done;
  let steals =
    match Hp_plus.collector_stats t with
    | Some s -> s.ctrs.steals
    | None -> 0
  in
  if stall then Fault.release ();
  Hhs.clear_local lo;
  Hp_plus.flush h;
  Hp_plus.unregister h;
  Hp_plus.shutdown t;
  let survivor = Hp_plus.register t in
  Hp_plus.flush survivor;
  Hp_plus.flush survivor;
  Alcotest.(check int) "drains to zero once released" 0
    (Stats.unreclaimed (Hp_plus.stats t));
  Hp_plus.unregister survivor;
  Fault.reset ();
  (!peak, steals)

(* A stalled collector must not let garbage grow past the inline envelope
   plus two handed-off bags: once two bags sit in the ring, the mutator
   absorbs them into its own pass instead of queueing more (without the
   rule the ring fills to capacity and then the mutator's own bag grows to
   the inline baseline on top). *)
let test_hpp_assist_bounds_stalled_churn () =
  let inline_peak, _ = hhs_churn_peak base in
  let async_cfg = { base with async_reclaim = true } in
  let bag = max 16 (base.reclaim_threshold / 8) in
  let stalled_peak, steals = hhs_churn_peak ~stall:true async_cfg in
  Printf.printf "inline peak %d, stalled async peak %d, bag %d, steals %d\n%!"
    inline_peak stalled_peak bag steals;
  Alcotest.(check bool) "queued bags absorbed by the mutator" true (steals > 0);
  if stalled_peak > inline_peak + (2 * bag) then
    Alcotest.failf
      "stalled collector: peak garbage %d exceeds the inline envelope %d plus \
       two bags (%d)"
      stalled_peak inline_peak (2 * bag)

(* --- every scheme: async smoke, multi-domain churn drains to zero -------- *)

let async_smoke (module S : Smr.Smr_intf.S) () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 16; async_reclaim = true;
      handoff_capacity = 4 }
  in
  let t = S.create ~config:cfg () in
  ignore
    (Pool.run ~n:2 (fun _ ->
         let h = S.register t in
         for _ = 1 to 400 do
           S.retire h (Mem.make (S.stats t))
         done;
         S.flush h;
         S.unregister h));
  S.shutdown t;
  let survivor = S.register t in
  S.flush survivor;
  S.flush survivor;
  S.flush survivor;
  Alcotest.(check int)
    (S.name ^ ": zero residue after shutdown")
    0
    (Stats.unreclaimed (S.stats t));
  S.unregister survivor

(* Inline mode must be byte-for-byte unaffected: flag off, no collector. *)
let test_flag_off_no_collector () =
  let t = Hp.create ~config:base () in
  Alcotest.(check bool) "no collector when async_reclaim is off" true
    (Hp.collector_stats t = None);
  let h = Hp.register t in
  for _ = 1 to 100 do
    Hp.retire h (Mem.make (Hp.stats t))
  done;
  Hp.flush h;
  Alcotest.(check int) "inline path drains as before" 0
    (Stats.unreclaimed (Hp.stats t));
  Hp.unregister h;
  Hp.shutdown t

(* --- introspection: collector_stats gauges pinned under a forced stall --- *)

let test_collector_stats_under_stall () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 8; async_reclaim = true;
      handoff_capacity = 4 }
  in
  let t = Hp.create ~config:cfg () in
  let h = Hp.register t in
  (match Hp.collector_stats t with
  | None -> Alcotest.fail "async HP has no collector stats"
  | Some st ->
      Alcotest.(check int) "capacity as configured" 4
        st.Collector.ring_capacity;
      Alcotest.(check int) "ring empty at rest" 0 st.Collector.ring_occupancy;
      Alcotest.(check int) "no pending garbage at rest" 0 st.Collector.pending;
      Alcotest.(check int) "no drains recorded" 0
        st.Collector.drain_duration.Collector.count);
  Fault.arm ~point:Fault.Collector ~action:Fault.Stall ();
  Fault.await_stalled ();
  for _ = 1 to 200 do
    Hp.retire h (Mem.make (Hp.stats t))
  done;
  (* quiescent now: the retire loop is done, the collector is parked, so
     the gauges are stable and must agree with the counters *)
  (match Hp.collector_stats t with
  | None -> Alcotest.fail "stats gone mid-run"
  | Some st ->
      let c = st.Collector.ctrs in
      Alcotest.(check bool) "handoffs landed" true (c.Collector.handoffs > 0);
      Alcotest.(check int) "stalled collector completed no drains" 0
        c.Collector.drains;
      Alcotest.(check int) "occupancy = handoffs - steals"
        (c.Collector.handoffs - c.Collector.steals)
        st.Collector.ring_occupancy;
      Alcotest.(check int) "nothing pending on a parked collector" 0
        st.Collector.pending;
      Alcotest.(check int) "empty drain-duration histogram" 0
        st.Collector.drain_duration.Collector.count;
      Alcotest.(check int) "empty garbage-age histogram" 0
        st.Collector.garbage_age.Collector.count);
  Fault.release ();
  Hp.flush h;
  Hp.unregister h;
  Hp.shutdown t;
  let survivor = Hp.register t in
  Hp.flush survivor;
  Alcotest.(check int) "drains to zero once released" 0
    (Stats.unreclaimed (Hp.stats t));
  Hp.unregister survivor;
  Fault.reset ()

let test_collector_stats_after_drains () =
  Fault.reset ();
  let cfg =
    { base with reclaim_threshold = 8; async_reclaim = true;
      handoff_capacity = 4 }
  in
  let t = Hp.create ~config:cfg () in
  let h = Hp.register t in
  for _ = 1 to 200 do
    Hp.retire h (Mem.make (Hp.stats t))
  done;
  Hp.flush h;
  (* wait (bounded) for the collector to chew through what was handed off *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec settle () =
    match Hp.collector_stats t with
    | Some st
      when st.Collector.ctrs.Collector.drained_bags
           + st.Collector.ctrs.Collector.steals
           >= st.Collector.ctrs.Collector.handoffs ->
        st
    | _ when Unix.gettimeofday () > deadline ->
        Alcotest.fail "collector never drained its ring"
    | _ ->
        Unix.sleepf 0.01;
        settle ()
  in
  let st = settle () in
  let c = st.Collector.ctrs in
  if c.Collector.drains > 0 then begin
    let hist = st.Collector.drain_duration in
    Alcotest.(check int) "one duration sample per drain cycle"
      c.Collector.drains hist.Collector.count;
    (match List.rev hist.Collector.buckets with
    | (_, last) :: _ ->
        Alcotest.(check int) "buckets cumulative to count" hist.Collector.count
          last
    | [] -> Alcotest.fail "no duration buckets");
    Alcotest.(check bool) "garbage ages observed" true
      (st.Collector.garbage_age.Collector.count > 0)
  end;
  Alcotest.(check bool) "no stats on inline schemes" true
    (Hp.collector_stats (Hp.create ~config:base ()) = None);
  Hp.unregister h;
  Hp.shutdown t

let () =
  Alcotest.run "collector"
    [
      ( "bags",
        [
          Alcotest.test_case "growth past initial capacity" `Quick
            test_bag_growth;
          Alcotest.test_case "transfer appends and empties" `Quick
            test_bag_transfer;
          Alcotest.test_case "salvage compacts in place" `Quick
            test_bag_salvage_in_place;
        ] );
      ( "ring",
        [
          Alcotest.test_case "handoff, drain, clean shutdown" `Quick
            test_ring_basic;
          Alcotest.test_case "full ring rejects; queued bags recovered" `Quick
            test_ring_full_rejects_and_recovers;
        ] );
      ( "hp",
        [
          Alcotest.test_case "clean shutdown drains all bags" `Quick
            test_hp_async_clean_shutdown;
          Alcotest.test_case "stalled collector: bounded inline fallback"
            `Quick (stalled_collector_inline_fallback (module Hp));
          Alcotest.test_case "killed collector: salvage, no double free"
            `Quick (collector_kill_salvage (module Hp));
          Alcotest.test_case "stats gauges pinned under forced stall" `Quick
            test_collector_stats_under_stall;
          Alcotest.test_case "drain histograms filled after real cycles" `Quick
            test_collector_stats_after_drains;
          Alcotest.test_case "flag off: no collector, inline unchanged" `Quick
            test_flag_off_no_collector;
        ] );
      ( "hp++",
        [
          Alcotest.test_case "stalled collector: assist keeps inline envelope"
            `Quick test_hpp_assist_bounds_stalled_churn;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "HP++ async smoke" `Quick
            (async_smoke (module Hp_plus));
          Alcotest.test_case "EBR async smoke" `Quick
            (async_smoke (module Ebr));
          Alcotest.test_case "PEBR async smoke" `Quick
            (async_smoke (module Pebr));
        ]
        @ List.concat_map
            (fun (name, m) ->
              [
                Alcotest.test_case
                  (name ^ " stalled collector: bounded inline fallback")
                  `Quick
                  (stalled_collector_inline_fallback m);
                Alcotest.test_case
                  (name ^ " killed collector: salvage, no double free")
                  `Quick (collector_kill_salvage m);
              ])
            [
              ("HP++", (module Hp_plus : Smr.Smr_intf.S));
              ("EBR", (module Ebr));
              ("PEBR", (module Pebr));
            ] );
      ( "ratchet",
        [
          Alcotest.test_case "EBR fallback keeps the inline cadence" `Quick
            (fallback_cadence (module Ebr));
          Alcotest.test_case "PEBR fallback keeps the inline cadence" `Quick
            (fallback_cadence (module Pebr));
        ] );
    ]
