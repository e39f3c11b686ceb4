(* Tests for the lib/obs tracer, exporters and trace-replay checker:
   ring-buffer semantics, the zero-cost disabled path, hand-built traces
   that must be rejected with precise diagnostics, and real traces from
   short runs of all four schemes that must pass clean. *)

module Trace = Obs.Trace
module Check = Obs.Check
module Tagged = Smr_core.Tagged
module Pool = Smr_core.Domain_pool
module Rng = Smr_core.Rng

let cleanup () =
  Trace.disable ();
  Trace.reset ()

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- tracer -------------------------------------------------------------- *)

let test_wraparound () =
  Trace.enable ~capacity:16 ();
  for i = 0 to 49 do
    Trace.emit Trace.Alloc i 0 0
  done;
  Trace.disable ();
  let snap = Trace.snapshot () in
  cleanup ();
  Alcotest.(check int) "kept" 16 (Array.length snap.Trace.events);
  Alcotest.(check int) "dropped" 34 snap.Trace.dropped;
  (* the newest events survive, in order *)
  Array.iteri
    (fun j (e : Trace.event) ->
      Alcotest.(check int) "uid" (34 + j) e.Trace.uid)
    snap.Trace.events;
  Alcotest.(check int) "horizon = oldest kept seq" 34 snap.Trace.complete_from

let test_multi_domain_merge () =
  let per_domain = 1000 and domains = 4 in
  Trace.enable ~capacity:4096 ();
  let ds =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Trace.emit Trace.Retire ((d * per_domain) + i) d 0
            done))
  in
  Array.iter Domain.join ds;
  Trace.disable ();
  let snap = Trace.snapshot () in
  cleanup ();
  Alcotest.(check int) "all events kept" (domains * per_domain)
    (Array.length snap.Trace.events);
  Alcotest.(check int) "nothing dropped" 0 snap.Trace.dropped;
  (* seq is a total order: strictly increasing and gap-free after merge *)
  Array.iteri
    (fun j (e : Trace.event) -> Alcotest.(check int) "seq" j e.Trace.seq)
    snap.Trace.events

let test_disabled_records_nothing_allocates_nothing () =
  cleanup ();
  for i = 0 to 99 do
    Trace.emit Trace.Retire i 0 0
  done;
  Alcotest.(check int) "nothing recorded" 0
    (Array.length (Trace.snapshot ()).Trace.events);
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    Trace.emit Trace.Retire i 0 0
  done;
  let w1 = Gc.minor_words () in
  (* budget far below one word per emit: a boxing bug would cost >= 100k *)
  Alcotest.(check bool) "no allocation on disabled emit" true (w1 -. w0 < 256.)

let test_raw_roundtrip () =
  Trace.enable ~capacity:16 ();
  for i = 0 to 49 do
    Trace.emit Trace.Step i (i + 1) 2
  done;
  Trace.disable ();
  let snap = Trace.snapshot () in
  cleanup ();
  let path = Filename.temp_file "obs_trace" ".raw" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_raw oc snap;
      close_out oc;
      let ic = open_in path in
      let back = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Trace.read_raw ic) in
      Alcotest.(check int) "dropped" snap.Trace.dropped back.Trace.dropped;
      Alcotest.(check int) "horizon" snap.Trace.complete_from
        back.Trace.complete_from;
      Alcotest.(check bool) "events round-trip" true
        (snap.Trace.events = back.Trace.events))

(* --- checker on hand-built traces ---------------------------------------- *)

let ev seq kind ~dom ~uid ?(a = 0) ?(b = 0) () : Trace.event =
  { Trace.seq; ts = seq; dom; kind; uid; a; b }

let expect_violation name rule ~uid events k =
  match Check.run events with
  | Ok _ -> Alcotest.failf "%s: expected a %s violation, trace passed" name rule
  | Error (v :: _ as vs) ->
      Alcotest.(check string) (name ^ " rule") rule v.Check.v_rule;
      Alcotest.(check int) (name ^ " uid") uid v.Check.v_uid;
      k vs
  | Error [] -> assert false

let test_reject_free_before_invalidate () =
  (* uids 1 and 2 unlinked as one batch; only 1 is invalidated before 1 is
     freed, so the whole-batch rule must name the missing member (2). *)
  let events =
    [|
      ev 0 Trace.Alloc ~dom:0 ~uid:1 ();
      ev 1 Trace.Alloc ~dom:0 ~uid:2 ();
      ev 2 Trace.Unlink ~dom:0 ~uid:1 ~a:7 ();
      ev 3 Trace.Unlink ~dom:0 ~uid:2 ~a:7 ();
      ev 4 Trace.Invalidate ~dom:0 ~uid:1 ~a:7 ();
      ev 5 Trace.Free ~dom:0 ~uid:1 ();
    |]
  in
  expect_violation "free-before-invalidate" "invalidate-before-free" ~uid:1
    events (fun (v :: _) ->
      Alcotest.(check bool) "diagnostic names the missing member" true
        (contains v.Check.v_detail "missing: 2");
      Alcotest.(check int) "at the Free" 5 v.Check.v_seq)
  [@warning "-8"]

let test_reject_free_in_protect_window () =
  (* dom 1 holds a validated protection on uid 1 when dom 0 frees it *)
  let events =
    [|
      ev 0 Trace.Alloc ~dom:0 ~uid:1 ();
      ev 1 Trace.Protect ~dom:1 ~uid:1 ();
      ev 2 Trace.Retire ~dom:0 ~uid:1 ();
      ev 3 Trace.Free ~dom:0 ~uid:1 ();
      ev 4 Trace.Unprotect ~dom:1 ~uid:1 ();
    |]
  in
  expect_violation "protect-window" "protect-window" ~uid:1 events
    (fun (v :: _) ->
      Alcotest.(check bool) "diagnostic names the protecting domain" true
        (contains v.Check.v_detail "dom 1");
      Alcotest.(check int) "at the Free" 3 v.Check.v_seq)
  [@warning "-8"]

let test_clean_trace_passes () =
  let events =
    [|
      ev 0 Trace.Alloc ~dom:0 ~uid:1 ();
      ev 1 Trace.Protect ~dom:1 ~uid:1 ();
      ev 2 Trace.Retire ~dom:0 ~uid:1 ();
      ev 3 Trace.Unprotect ~dom:1 ~uid:1 ();
      ev 4 Trace.Free ~dom:0 ~uid:1 ();
    |]
  in
  match Check.run events with
  | Ok s ->
      Alcotest.(check int) "allocs" 1 s.Check.allocs;
      Alcotest.(check int) "frees" 1 s.Check.frees;
      Alcotest.(check int) "protects" 1 s.Check.protects
  | Error (v :: _) ->
      Alcotest.failf "clean trace rejected: %s" v.Check.v_detail
  | Error [] -> assert false

(* Free's [a]: 0 frees a retired block, 1 cascades a live one (RC), 2
   discards a never-published one. Only [a = 0] needs a preceding retire;
   [a = 1] or [a = 2] after a retire contradicts the block's state. *)
let test_free_kinds_accepted () =
  let events =
    [|
      ev 0 Trace.Alloc ~dom:0 ~uid:1 ();
      ev 1 Trace.Alloc ~dom:0 ~uid:2 ();
      ev 2 Trace.Alloc ~dom:0 ~uid:3 ();
      ev 3 Trace.Retire ~dom:0 ~uid:1 ();
      ev 4 Trace.Free ~dom:0 ~uid:1 ();
      ev 5 Trace.Free ~dom:0 ~uid:2 ~a:1 ();
      ev 6 Trace.Free ~dom:0 ~uid:3 ~a:2 ();
    |]
  in
  match Check.run events with
  | Ok s -> Alcotest.(check int) "frees" 3 s.Check.frees
  | Error (v :: _) -> Alcotest.failf "free kinds rejected: %s" v.Check.v_detail
  | Error [] -> assert false

let test_free_kinds_rejected () =
  let after_retire a =
    [|
      ev 0 Trace.Alloc ~dom:0 ~uid:1 ();
      ev 1 Trace.Retire ~dom:0 ~uid:1 ();
      ev 2 Trace.Free ~dom:0 ~uid:1 ~a ();
    |]
  in
  let at_free (v :: _) = Alcotest.(check int) "at the Free" 2 v.Check.v_seq
  [@@warning "-8"] in
  expect_violation "discard after retire" "lifecycle" ~uid:1 (after_retire 2)
    at_free;
  expect_violation "live cascade after retire" "lifecycle" ~uid:1
    (after_retire 1) at_free;
  (* a cascade of a retired block is traced with [a = 0], so it needs the
     retire like any other free *)
  expect_violation "retired free without a retire" "lifecycle" ~uid:1
    [| ev 0 Trace.Alloc ~dom:0 ~uid:1 (); ev 1 Trace.Free ~dom:0 ~uid:1 () |]
    (fun (v :: _) ->
      Alcotest.(check bool) "names the missing retire" true
        (contains v.Check.v_detail "without a preceding retire"))
  [@warning "-8"]

let test_step_tag_bits_pin_tagged () =
  (* the checker's notion of the invalid bit must be Tagged's *)
  let step b = [| ev 0 Trace.Step ~dom:0 ~uid:1 ~a:2 ~b () |] in
  (match Check.run (step Tagged.invalid_bit) with
  | Ok _ -> Alcotest.fail "step over the invalid bit passed"
  | Error (v :: _) ->
      Alcotest.(check string) "rule" "step-from-invalidated" v.Check.v_rule
  | Error [] -> assert false);
  match Check.run (step Tagged.deleted_bit) with
  | Ok _ -> () (* deletion tags are fine to traverse *)
  | Error (v :: _) -> Alcotest.failf "deleted-tag step rejected: %s" v.Check.v_detail
  | Error [] -> assert false

let test_phantom_uid_rejected () =
  (* the checker's phantom uid must be Mem's (and not the -1 no-node Step
     sentinel); any event carrying it must flag, even below no horizon *)
  Alcotest.(check int) "pinned to Mem.phantom_uid" Smr_core.Mem.phantom_uid
    Check.phantom_uid;
  Alcotest.(check bool) "distinct from no-node sentinel" true
    (Check.phantom_uid <> -1);
  let phantom_retire =
    [| ev 0 Trace.Retire ~dom:0 ~uid:Check.phantom_uid () |]
  in
  expect_violation "phantom retire" "phantom" ~uid:Check.phantom_uid
    phantom_retire (fun _ -> ());
  (* a Step *into* the phantom is just as much of a leak *)
  (match
     Check.run [| ev 0 Trace.Step ~dom:0 ~uid:1 ~a:Check.phantom_uid () |]
   with
  | Ok _ -> Alcotest.fail "step onto the phantom passed"
  | Error (v :: _) -> Alcotest.(check string) "rule" "phantom" v.Check.v_rule
  | Error [] -> assert false);
  (* while a Step with the ordinary -1 no-node sentinel stays clean *)
  match Check.run [| ev 0 Trace.Step ~dom:0 ~uid:(-1) ~a:1 () |] with
  | Ok _ -> ()
  | Error (v :: _) ->
      Alcotest.failf "no-node sentinel step rejected: %s" v.Check.v_detail
  | Error [] -> assert false

let test_horizon_suppresses_incomplete () =
  (* same protect-window shape, but everything before the Free is below the
     horizon: state still replays (no lifecycle noise), nothing flags *)
  let events =
    [|
      ev 0 Trace.Alloc ~dom:0 ~uid:1 ();
      ev 1 Trace.Protect ~dom:1 ~uid:1 ();
      ev 2 Trace.Retire ~dom:0 ~uid:1 ();
      ev 3 Trace.Free ~dom:0 ~uid:1 ();
    |]
  in
  match Check.run ~complete_from:4 events with
  | Ok s -> Alcotest.(check int) "state-only events" 4 s.Check.below_horizon
  | Error (v :: _) ->
      Alcotest.failf "below-horizon event flagged: %s" v.Check.v_detail
  | Error [] -> assert false

(* --- real traces from the actual schemes --------------------------------- *)

module Churn
    (S : Smr.Smr_intf.S)
    (L : Smr_ds.Ds_intf.MAP with type scheme = S.t and type handle = S.handle) =
struct
  let run () =
    let scheme = S.create () in
    let t = L.create scheme in
    ignore
      (Pool.run_timed ~n:2 ~duration:0.12 (fun i ~stop ->
           let h = S.register scheme in
           let lo = L.make_local h in
           let rng = Rng.create ~seed:(31 + i) in
           while not (stop ()) do
             let key = Rng.below rng 48 in
             match Rng.below rng 4 with
             | 0 | 1 -> ignore (L.get t lo key)
             | 2 -> ignore (L.insert t lo key key)
             | _ -> ignore (L.remove t lo key)
           done;
           L.clear_local lo;
           S.unregister h))

  (* A fixed-size churn at a small reclaim threshold, so blocks are freed
     and the whole trace fits the rings; returns the scheme's counters. *)
  let counted () =
    let scheme =
      S.create
        ~config:{ Smr.Smr_intf.default_config with reclaim_threshold = 16 }
        ()
    in
    let t = L.create scheme in
    ignore
      (Pool.run ~n:2 (fun i ->
           let h = S.register scheme in
           let lo = L.make_local h in
           let rng = Rng.create ~seed:(7 + i) in
           for _ = 1 to 600 do
             let key = Rng.below rng 24 in
             match Rng.below rng 3 with
             | 0 -> ignore (L.get t lo key)
             | 1 -> ignore (L.insert t lo key key)
             | _ -> ignore (L.remove t lo key)
           done;
           L.clear_local lo;
           S.flush h;
           S.unregister h));
    S.stats scheme
end

let record run =
  Trace.enable ~capacity:(1 lsl 16) ();
  run ();
  Trace.disable ();
  let snap = Trace.snapshot () in
  cleanup ();
  snap

let check_snapshot name snap =
  match Check.run_snapshot snap with
  | Ok s ->
      Alcotest.(check bool) (name ^ ": trace non-empty") true (s.Check.events > 0);
      s
  | Error (v :: rest) ->
      Alcotest.failf "%s: %s (+%d more)" name
        (Format.asprintf "%a" Check.pp_violation v)
        (List.length rest)
  | Error [] -> assert false

let check_clean name run = check_snapshot name (record run)

(* A tree traces each step from the node whose child link it read, so the
   replay checker's step-from-freed and self-invalidation rules see every
   step: none may carry the root-link source uid -1. *)
let check_tree_clean name run =
  let snap = record run in
  let s = check_snapshot name snap in
  Alcotest.(check bool) (name ^ ": saw steps") true (s.Check.steps > 0);
  Alcotest.(check bool)
    (name ^ ": no step from the root link")
    false
    (Array.exists
       (fun (e : Trace.event) -> e.kind = Trace.Step && e.uid = -1)
       snap.Trace.events)

let test_real_trace_nmtree_hpp () =
  let module M = Churn (Hp_plus) (Smr_ds.Nmtree.Make (Hp_plus)) in
  check_tree_clean "nmtree/HP++" M.run

let test_real_trace_efrbtree_hpp () =
  let module M = Churn (Hp_plus) (Smr_ds.Efrbtree.Make (Hp_plus)) in
  check_tree_clean "efrbtree/HP++" M.run

let test_real_trace_efrbtree_hp () =
  let module M = Churn (Hp) (Smr_ds.Efrbtree.Make (Hp)) in
  check_tree_clean "efrbtree/HP" M.run

let test_real_trace_hp () =
  let module M = Churn (Hp) (Smr_ds.Hmlist.Make (Hp)) in
  let s = check_clean "hmlist/HP" M.run in
  Alcotest.(check bool) "saw protections" true (s.Check.protects > 0)

let test_real_trace_hpp () =
  let module M = Churn (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus)) in
  let s = check_clean "hhslist/HP++" M.run in
  Alcotest.(check bool) "saw unlink batches" true (s.Check.unlink_batches > 0)

let test_real_trace_ebr () =
  let module M = Churn (Ebr) (Smr_ds.Hhslist.Make (Ebr)) in
  ignore (check_clean "hhslist/EBR" M.run)

let test_real_trace_pebr () =
  let module M = Churn (Pebr) (Smr_ds.Hhslist.Make (Pebr)) in
  let s = check_clean "hhslist/PEBR" M.run in
  Alcotest.(check bool) "saw steps" true (s.Check.steps > 0)

(* --- events and counters: one instrumentation path ------------------------ *)

(* Mem counts each transition in Stats where it emits its event, so over a
   fully recorded run the counters are projections of the trace:
     #Alloc = allocated, #Retire + #Free{a=1} = retired_total, #Free = freed
   and a /metrics scrape at the same quiescent point reads the same three. *)
let scraped body name =
  let sample l =
    match Scanf.sscanf_opt l "%s %f" (fun n v -> (n, v)) with
    | Some (n, v) when n = name -> Some (int_of_float v)
    | _ -> None
  in
  match List.find_map sample (String.split_on_char '\n' body) with
  | Some v -> v
  | None -> Alcotest.failf "/metrics has no %s sample" name

let check_counts name ~reclaims run =
  Trace.enable ~capacity:(1 lsl 17) ();
  let stats = run () in
  Trace.disable ();
  let snap = Trace.snapshot () in
  cleanup ();
  Alcotest.(check int) (name ^ ": nothing dropped") 0 snap.Trace.dropped;
  ignore (check_snapshot name snap);
  let count p =
    Array.fold_left (fun n e -> if p e then n + 1 else n) 0 snap.Trace.events
  in
  let kind k (e : Trace.event) = e.kind = k in
  let allocs = count (kind Trace.Alloc)
  and retires = count (kind Trace.Retire)
  and frees = count (kind Trace.Free)
  and late = count (fun e -> e.kind = Trace.Free && e.a = 1) in
  let module Stats = Smr_core.Stats in
  Alcotest.(check int) (name ^ ": #Alloc = allocated") allocs
    (Stats.allocated stats);
  Alcotest.(check int)
    (name ^ ": #Retire + #Free{a=1} = retired_total")
    (retires + late) (Stats.retired_total stats);
  Alcotest.(check int) (name ^ ": #Free = freed") frees (Stats.freed stats);
  Alcotest.(check bool) (name ^ ": retired some") true (retires > 0);
  if reclaims then Alcotest.(check bool) (name ^ ": freed some") true (frees > 0);
  let m = Obs.Metrics.create () in
  Service.Telemetry.add_smr_stats m stats;
  let body = Obs.Metrics.to_string m in
  Alcotest.(check int) (name ^ ": /metrics allocated") allocs
    (scraped body "smr_blocks_allocated_total");
  Alcotest.(check int) (name ^ ": /metrics retired") (retires + late)
    (scraped body "smr_blocks_retired_total");
  Alcotest.(check int) (name ^ ": /metrics freed") frees
    (scraped body "smr_blocks_freed_total");
  late

let test_counts_hp () =
  let module L = Churn (Hp) (Smr_ds.Hmlist.Make (Hp)) in
  let module B = Churn (Hp) (Smr_ds.Bonsai.Make (Hp)) in
  ignore (check_counts "hmlist/HP" ~reclaims:true L.counted);
  ignore (check_counts "bonsai/HP" ~reclaims:true B.counted)

let test_counts_hpp () =
  let module L = Churn (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus)) in
  let module B = Churn (Hp_plus) (Smr_ds.Bonsai.Make (Hp_plus)) in
  ignore (check_counts "hhslist/HP++" ~reclaims:true L.counted);
  ignore (check_counts "bonsai/HP++" ~reclaims:true B.counted)

let test_counts_ebr () =
  let module L = Churn (Ebr) (Smr_ds.Hhslist.Make (Ebr)) in
  let module B = Churn (Ebr) (Smr_ds.Bonsai.Make (Ebr)) in
  ignore (check_counts "hhslist/EBR" ~reclaims:true L.counted);
  ignore (check_counts "bonsai/EBR" ~reclaims:true B.counted)

let test_counts_pebr () =
  let module L = Churn (Pebr) (Smr_ds.Hhslist.Make (Pebr)) in
  let module B = Churn (Pebr) (Smr_ds.Bonsai.Make (Pebr)) in
  ignore (check_counts "hhslist/PEBR" ~reclaims:true L.counted);
  ignore (check_counts "bonsai/PEBR" ~reclaims:true B.counted)

(* Two parents share a child: the second parent's destruction cascades
   into the still-live child, RC's late retire (Free with a = 1). *)
let rc_shared_child () =
  let t = Rc.create () in
  let h = Rc.register t in
  let stats = Rc.stats t in
  let child = Smr_core.Mem.make stats in
  Rc.incr_ref child;
  for _ = 1 to 2 do
    Rc.retire_with_children h (Smr_core.Mem.make stats) ~children:(fun () ->
        [ child ]);
    Rc.flush h
  done;
  Rc.unregister h;
  stats

let test_counts_rc () =
  let module L = Churn (Rc) (Smr_ds.Hhslist.Make (Rc)) in
  let module B = Churn (Rc) (Smr_ds.Bonsai.Make (Rc)) in
  ignore (check_counts "hhslist/RC" ~reclaims:true L.counted);
  ignore (check_counts "bonsai/RC" ~reclaims:true B.counted);
  Alcotest.(check int) "shared child: one late retire" 1
    (check_counts "shared-child/RC" ~reclaims:true rc_shared_child)

let test_counts_nr () =
  let module L = Churn (Nr) (Smr_ds.Hhslist.Make (Nr)) in
  let module B = Churn (Nr) (Smr_ds.Bonsai.Make (Nr)) in
  ignore (check_counts "hhslist/NR" ~reclaims:false L.counted);
  ignore (check_counts "bonsai/NR" ~reclaims:false B.counted)

let test_real_trace_shardkv () =
  let module KV = Service.Shardkv.Make (Hp_plus) in
  let s =
    check_clean "shardkv/HP++" (fun () ->
        let kv = KV.create ~shards:2 () in
        for k = 0 to 400 do
          ignore (KV.put kv k k);
          ignore (KV.get kv k);
          if k mod 3 = 0 then ignore (KV.delete kv k)
        done;
        KV.detach kv)
  in
  Alcotest.(check bool) "saw op spans" true (s.Check.spans > 0)

(* --- metrics: histogram family, label validation, escaping --------------- *)

let test_metrics_histogram () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.histogram m ~help:"Latency" "lat"
    ~buckets:[ (0.001, 2); (0.01, 5) ]
    ~count:7 ~sum:0.025;
  let s = Obs.Metrics.to_string m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains s needle))
    [
      "# TYPE lat histogram";
      "# HELP lat Latency";
      "lat_bucket{le=\"0.001\"} 2";
      "lat_bucket{le=\"0.01\"} 5";
      "lat_bucket{le=\"+Inf\"} 7";
      "lat_count 7";
      "lat_sum 0.025";
    ];
  (* the bucket/count/sum sub-series ride under the one histogram TYPE
     header — no per-series TYPE lines of their own *)
  Alcotest.(check bool) "no TYPE for _bucket" false (contains s "TYPE lat_bucket");
  Alcotest.(check bool) "no TYPE for _count" false (contains s "TYPE lat_count");
  Alcotest.(check bool) "no TYPE for _sum" false (contains s "TYPE lat_sum")

let test_metrics_label_key_rejected () =
  let m = Obs.Metrics.create () in
  let rejects k =
    match Obs.Metrics.counter m ~labels:[ (k, "v") ] "ok_name" 1.0 with
    | () -> Alcotest.failf "label key %S accepted" k
    | exception Invalid_argument _ -> ()
  in
  List.iter rejects [ ""; "0abc"; "le:quantile"; "a-b"; "sp ace" ];
  (* valid keys still pass *)
  Obs.Metrics.counter m ~labels:[ ("_ok", "v"); ("aB9_", "w") ] "ok_name" 1.0

let test_metrics_label_value_escaped () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.gauge m ~labels:[ ("path", "a\"b\\c\nd") ] "g" 1.0;
  let s = Obs.Metrics.to_string m in
  Alcotest.(check bool) "escaped value pinned" true
    (contains s "path=\"a\\\"b\\\\c\\nd\"")

(* --- exposition: request handling and the live listener ------------------- *)

let test_exposition_handle_request () =
  let refresh () = "body 42\n" in
  let starts needle s =
    Alcotest.(check bool)
      ("starts with " ^ needle)
      true
      (String.length s >= String.length needle
      && String.sub s 0 (String.length needle) = needle)
  in
  let r = Obs.Exposition.handle_request ~refresh "GET /metrics HTTP/1.0" in
  starts "HTTP/1.0 200" r;
  Alcotest.(check bool) "body served" true (contains r "body 42");
  Alcotest.(check bool) "content-type" true
    (contains r "text/plain; version=0.0.4");
  starts "HTTP/1.0 200"
    (Obs.Exposition.handle_request ~refresh "GET /metrics?x=1 HTTP/1.1");
  starts "HTTP/1.0 404"
    (Obs.Exposition.handle_request ~refresh "GET /other HTTP/1.0");
  starts "HTTP/1.0 405"
    (Obs.Exposition.handle_request ~refresh "POST /metrics HTTP/1.0");
  starts "HTTP/1.0 400" (Obs.Exposition.handle_request ~refresh "garbage")

let scrape port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            ()
      in
      go ();
      Buffer.contents buf)

let test_exposition_live_scrape () =
  let calls = Atomic.make 0 in
  let sample m =
    Obs.Metrics.counter m "samples_total"
      (float_of_int (Atomic.fetch_and_add calls 1 + 1))
  in
  (* every:0 → every scrape resamples; chunk:7 → the 200 goes out in
     7-byte writes, covering the partial-write path on every response *)
  let e =
    Obs.Exposition.start ~every:0.0 ~chunk:7 ~sample
      (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  in
  Fun.protect
    ~finally:(fun () -> Obs.Exposition.stop e)
    (fun () ->
      let port = Obs.Exposition.port e in
      let r1 = scrape port in
      Alcotest.(check bool) "scrape 1 ok" true (contains r1 "HTTP/1.0 200");
      Alcotest.(check bool) "scrape 1 sampled" true
        (contains r1 "samples_total 1");
      let r2 = scrape port in
      Alcotest.(check bool) "scrape 2 resampled" true
        (contains r2 "samples_total 2");
      Alcotest.(check bool) "404 leaves listener alive" true
        (contains (scrape port) "samples_total");
      Alcotest.(check int) "scrapes counted" 3 (Obs.Exposition.scrapes e));
  (* stop is idempotent *)
  Obs.Exposition.stop e

let test_exposition_survives_write_kill () =
  let sample m = Obs.Metrics.counter m "c_total" 1.0 in
  let e =
    Obs.Exposition.start ~every:0.0 ~chunk:8 ~sample
      (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      Obs.Exposition.stop e)
    (fun () ->
      let port = Obs.Exposition.port e in
      (* kill the response write on its second chunk: that connection dies
         mid-response, the listener must survive *)
      Fault.arm ~point:Fault.Net_write ~action:Fault.Kill ~after:2 ();
      let truncated = scrape port in
      Alcotest.(check bool) "response cut short" true
        (String.length truncated < 100);
      Fault.reset ();
      let r = scrape port in
      Alcotest.(check bool) "endpoint survives a killed write" true
        (contains r "c_total 1"))

(* --- merge: clock correlation and span synthesis -------------------------- *)

let evt ~seq ~ts ~dom ?(a = 0) ?(b = 0) kind uid : Trace.event =
  { Trace.seq; ts; dom; kind; uid; a; b }

let mk_snap events =
  { Trace.events; dropped = 0; complete_from = 0 }

(* Three request/reply exchanges with symmetric network delay and a true
   server-minus-client offset of [d] ns: the NTP-style estimate recovers
   [d] exactly, with zero spread. *)
let correlated_pair d =
  let frame i =
    let f = i + 1 in
    let base = 10_000 * f in
    let cs = base and cd = base + 4000 in
    let sr = base + 1000 + d and sw = base + 3000 + d in
    ( [
        evt ~seq:(2 * i) ~ts:cs ~dom:0 Trace.Req_send f;
        evt ~seq:((2 * i) + 1) ~ts:cd ~dom:0 ~a:0x81 Trace.Req_done f;
      ],
      [
        evt ~seq:(4 * i) ~ts:sr ~dom:0 ~a:1 ~b:0 Trace.Req_recv f;
        evt ~seq:((4 * i) + 1) ~ts:(sr + 500) ~dom:0 Trace.Req_dispatch f;
        evt ~seq:((4 * i) + 2) ~ts:(sw - 500) ~dom:0 ~a:0x81 ~b:1500
          Trace.Req_reply f;
        evt ~seq:((4 * i) + 3) ~ts:sw ~dom:1 Trace.Req_wire f;
      ] )
  in
  let pairs = List.map frame [ 0; 1; 2 ] in
  ( mk_snap (Array.of_list (List.concat_map fst pairs)),
    mk_snap (Array.of_list (List.concat_map snd pairs)) )

let test_merge_offset () =
  let client, server = correlated_pair 700_000 in
  match Obs.Merge.estimate_offset ~client ~server with
  | None -> Alcotest.fail "no correlation found"
  | Some c ->
      Alcotest.(check int) "offset" 700_000 c.Obs.Merge.offset_ns;
      Alcotest.(check int) "pairs" 3 c.Obs.Merge.pairs;
      Alcotest.(check int) "spread" 0 c.Obs.Merge.spread_ns

let test_merge_rebases_and_spans () =
  let d = 700_000 in
  let client, server = correlated_pair d in
  let corr, merged = Obs.Merge.merge ~client ~server in
  Alcotest.(check int) "offset used" d corr.Obs.Merge.offset_ns;
  (* seqs are a gap-free total order; client events land after the server's
     and on domain ids above every server domain *)
  Array.iteri
    (fun j (e : Trace.event) -> Alcotest.(check int) "seq" j e.Trace.seq)
    merged.Trace.events;
  let server_n = Array.length server.Trace.events in
  Array.iteri
    (fun j (e : Trace.event) ->
      if j >= server_n then Alcotest.(check int) "client dom shifted" 2 e.Trace.dom)
    merged.Trace.events;
  (* a client Req_send now sits on the server clock: ts + d *)
  let send1 =
    Array.to_list merged.Trace.events
    |> List.find (fun (e : Trace.event) -> e.Trace.kind = Trace.Req_send)
  in
  Alcotest.(check int) "client ts rebased" (10_000 + d) send1.Trace.ts;
  let with_spans = Obs.Merge.synthesize_spans merged in
  let spans =
    Array.to_list with_spans.Trace.events
    |> List.filter (fun (e : Trace.event) -> e.Trace.kind = Trace.Span)
  in
  Alcotest.(check int) "4 spans per frame" 12 (List.length spans);
  let count op =
    List.length (List.filter (fun (e : Trace.event) -> e.Trace.a = op) spans)
  in
  Alcotest.(check int) "rpc spans" 3 (count Obs.Merge.op_rpc);
  Alcotest.(check int) "queue spans" 3 (count Obs.Merge.op_queue);
  Alcotest.(check int) "serve spans" 3 (count Obs.Merge.op_serve);
  Alcotest.(check int) "write spans" 3 (count Obs.Merge.op_write);
  (* frame 1's rpc span: starts at the rebased send, lasts cd - cs *)
  let rpc1 =
    List.find
      (fun (e : Trace.event) -> e.Trace.a = Obs.Merge.op_rpc && e.Trace.uid = 1)
      spans
  in
  Alcotest.(check int) "rpc start" (10_000 + d) rpc1.Trace.ts;
  Alcotest.(check int) "rpc duration" 4000 rpc1.Trace.b;
  (* and the checker still accepts the merged, span-bearing snapshot *)
  match Check.run with_spans.Trace.events with
  | Ok _ -> ()
  | Error (v :: _) ->
      Alcotest.failf "merged trace rejected: %s" v.Check.v_detail
  | Error [] -> assert false

let test_merge_no_correlation () =
  let client =
    mk_snap [| evt ~seq:0 ~ts:0 ~dom:0 Trace.Req_send 1 |]
  in
  let server = mk_snap [| evt ~seq:0 ~ts:0 ~dom:0 Trace.Alloc 9 |] in
  (match Obs.Merge.estimate_offset ~client ~server with
  | None -> ()
  | Some _ -> Alcotest.fail "correlation from unrelated traces");
  let corr, merged = Obs.Merge.merge ~client ~server in
  Alcotest.(check int) "pairs" 0 corr.Obs.Merge.pairs;
  Alcotest.(check int) "offset falls back to 0" 0 corr.Obs.Merge.offset_ns;
  Alcotest.(check int) "both events kept" 2 (Array.length merged.Trace.events)

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "ring wraparound keeps newest" `Quick
            test_wraparound;
          Alcotest.test_case "multi-domain merge totally ordered" `Quick
            test_multi_domain_merge;
          Alcotest.test_case "disabled: no events, no allocation" `Quick
            test_disabled_records_nothing_allocates_nothing;
          Alcotest.test_case "raw artifact round-trip" `Quick
            test_raw_roundtrip;
        ] );
      ( "checker",
        [
          Alcotest.test_case "rejects free before batch invalidation" `Quick
            test_reject_free_before_invalidate;
          Alcotest.test_case "rejects free inside protection window" `Quick
            test_reject_free_in_protect_window;
          Alcotest.test_case "clean trace passes" `Quick test_clean_trace_passes;
          Alcotest.test_case "free kinds 0/1/2 accepted" `Quick
            test_free_kinds_accepted;
          Alcotest.test_case "free kinds contradicting a retire rejected"
            `Quick test_free_kinds_rejected;
          Alcotest.test_case "step tag bits pinned to Tagged" `Quick
            test_step_tag_bits_pin_tagged;
          Alcotest.test_case "phantom uid rejected, pinned to Mem" `Quick
            test_phantom_uid_rejected;
          Alcotest.test_case "wraparound horizon suppresses incomplete" `Quick
            test_horizon_suppresses_incomplete;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram family rendering" `Quick
            test_metrics_histogram;
          Alcotest.test_case "invalid label keys rejected" `Quick
            test_metrics_label_key_rejected;
          Alcotest.test_case "label values escaped" `Quick
            test_metrics_label_value_escaped;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "request parsing: 200/404/405/400" `Quick
            test_exposition_handle_request;
          Alcotest.test_case "live scrape with partial writes" `Quick
            test_exposition_live_scrape;
          Alcotest.test_case "killed write leaves endpoint alive" `Quick
            test_exposition_survives_write_kill;
        ] );
      ( "merge",
        [
          Alcotest.test_case "NTP-style offset recovered exactly" `Quick
            test_merge_offset;
          Alcotest.test_case "merge rebases client, synthesizes spans" `Quick
            test_merge_rebases_and_spans;
          Alcotest.test_case "unrelated traces: no pairs, offset 0" `Quick
            test_merge_no_correlation;
        ] );
      ( "real-traces",
        [
          Alcotest.test_case "hmlist/HP clean" `Quick test_real_trace_hp;
          Alcotest.test_case "hhslist/HP++ clean" `Quick test_real_trace_hpp;
          Alcotest.test_case "hhslist/EBR clean" `Quick test_real_trace_ebr;
          Alcotest.test_case "hhslist/PEBR clean" `Quick test_real_trace_pebr;
          Alcotest.test_case "shardkv spans clean" `Quick
            test_real_trace_shardkv;
          Alcotest.test_case "nmtree/HP++ clean" `Quick
            test_real_trace_nmtree_hpp;
          Alcotest.test_case "efrbtree/HP++ clean" `Quick
            test_real_trace_efrbtree_hpp;
          Alcotest.test_case "efrbtree/HP clean" `Quick
            test_real_trace_efrbtree_hp;
          Alcotest.test_case "HP events = counters = /metrics" `Quick
            test_counts_hp;
          Alcotest.test_case "HP++ events = counters = /metrics" `Quick
            test_counts_hpp;
          Alcotest.test_case "EBR events = counters = /metrics" `Quick
            test_counts_ebr;
          Alcotest.test_case "PEBR events = counters = /metrics" `Quick
            test_counts_pebr;
          Alcotest.test_case "RC events = counters = /metrics" `Quick
            test_counts_rc;
          Alcotest.test_case "NR events = counters = /metrics" `Quick
            test_counts_nr;
        ] );
    ]
