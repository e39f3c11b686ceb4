(* Harness-level units: the workload mix generator actually produces the
   configured operation ratios, and the metric name table stays total. *)

module Workload = Bench_harness.Workload
module Bench_types = Bench_harness.Bench_types
module Rng = Smr_core.Rng

let test_pick_ratios () =
  List.iter
    (fun (w : Workload.t) ->
      let rng = Rng.create ~seed:0x1234 in
      let n = 100_000 in
      let ins = ref 0 and del = ref 0 and get = ref 0 in
      for _ = 1 to n do
        match Workload.pick w rng with
        | Workload.Insert -> incr ins
        | Workload.Delete -> incr del
        | Workload.Get -> incr get
      done;
      let pct x = float_of_int x *. 100.0 /. float_of_int n in
      let close what expected got =
        if Float.abs (pct got -. float_of_int expected) > 1.0 then
          Alcotest.failf "%s/%s: expected ~%d%%, got %.2f%%" w.Workload.name
            what expected (pct got)
      in
      close "insert" w.Workload.insert_pct !ins;
      close "delete" w.Workload.delete_pct !del;
      close "get" (100 - w.Workload.insert_pct - w.Workload.delete_pct) !get)
    Workload.all

let test_pick_exhaustive_writes () =
  (* a 50/50 write-only mix must never produce a Get *)
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    match Workload.pick Workload.write_only rng with
    | Workload.Get -> Alcotest.fail "write-only produced a Get"
    | _ -> ()
  done

let sample_result : Bench_types.result =
  {
    ops = 1000;
    wall = 2.0;
    throughput_mops = 0.5;
    offered_rps = 750000.0;
    achieved_rps = 500000.0;
    peak_unreclaimed = 42;
    avg_unreclaimed = 21.5;
    peak_live = 99;
    heavy_fences = 7;
    protection_failures = 3;
    allocated = 5000;
    freed = 4000;
    retired_total = 4100;
  }

let test_metric_of_name_known () =
  let expected =
    [
      ("throughput", 0.5);
      ("offered-rps", 750000.0);
      ("achieved-rps", 500000.0);
      ("peak-unreclaimed", 42.0);
      ("avg-unreclaimed", 21.5);
      ("peak-live", 99.0);
      ("heavy-fences", 7.0);
      ("protection-failures", 3.0);
      ("allocated", 5000.0);
      ("freed", 4000.0);
      ("retired-total", 4100.0);
    ]
  in
  List.iter
    (fun (name, v) ->
      let m = Bench_types.metric_of_name name in
      Alcotest.(check (float 1e-9)) name v (m sample_result))
    expected

let test_metric_of_name_unknown () =
  Alcotest.check_raises "unknown metric"
    (Invalid_argument "unknown metric: bogus") (fun () ->
      let (_ : Bench_types.metric) = Bench_types.metric_of_name "bogus" in
      ())

let test_collector_rows () =
  Bench_harness.Results.reset ();
  Bench_harness.Results.set_experiment "unit";
  Bench_harness.Results.add
    ~extra:[ ("note", Service.Json.String "unit-extra") ]
    ~ds:"HashMap" ~scheme:"HP++" ~threads:2 ~key_range:1024
    ~workload:"read-write" sample_result;
  let json = Service.Json.to_string (Bench_harness.Results.to_json ()) in
  List.iter
    (fun needle ->
      if
        not
          (let n = String.length needle and h = String.length json in
           let rec scan i =
             i + n <= h && (String.sub json i n = needle || scan (i + 1))
           in
           scan 0)
      then Alcotest.failf "JSON missing %S in %s" needle json)
    [
      "\"experiment\":\"unit\"";
      "\"ds\":\"HashMap\"";
      "\"scheme\":\"HP++\"";
      "\"throughput_mops\":0.5";
      "\"offered_rps\":750000";
      "\"achieved_rps\":500000";
      "\"protection_failures\":3";
      "\"note\":\"unit-extra\"";
    ];
  Bench_harness.Results.reset ()

(* The paper's "not applicable" cells, derived rather than listed: over
   every map structure under every scheme, a structure's [unsupported]
   answer is exactly what its [create] raises, and the cells it rejects
   are optimistic traversals under HP plus EFRBTree under RC. *)
let test_not_applicable () =
  let structures =
    ("LazyList", (module Smr_ds.Lazylist.Make : Smr_ds.Ds_intf.MAKE_MAP))
    :: Bench_harness.Instances.structures
  in
  let rejected =
    List.concat_map
      (fun (ds, (module Make : Smr_ds.Ds_intf.MAKE_MAP)) ->
        List.filter_map
          (fun (scheme, (module S : Smr.Smr_intf.S)) ->
            let module M = Make (S) in
            let raised =
              match M.create (S.create ()) with
              | (_ : int M.t) -> None
              | exception Smr.Smr_intf.Unsupported_scheme m -> Some m
            in
            Alcotest.(check (option string))
              (ds ^ "/" ^ scheme ^ ": create raises unsupported")
              M.unsupported raised;
            Option.map (fun _ -> ds ^ "/" ^ scheme) raised)
          Schemes.all)
      structures
  in
  Alcotest.(check (list string))
    "not-applicable cells"
    [ "EFRBTree/RC"; "HHSList/HP"; "LazyList/HP"; "NMTree/HP" ]
    (List.sort compare rejected)

(* The benchmark matrix is every paper structure under every scheme, in
   figure order, less the three not-applicable cells: 39 of 42. *)
let test_instances_matrix () =
  let module I = Bench_harness.Instances in
  let expected =
    List.concat_map
      (fun ds ->
        List.filter_map
          (fun scheme ->
            if
              List.mem (ds, scheme)
                [ ("HHSList", "HP"); ("NMTree", "HP"); ("EFRBTree", "RC") ]
            then None
            else Some (ds, scheme))
          Schemes.names)
      I.ds_order
  in
  Alcotest.(check int) "cells" 39 (List.length I.all);
  Alcotest.(check (list (pair string string)))
    "cells in figure order" expected
    (List.map (fun (i : I.instance) -> (i.ds, i.scheme)) I.all)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          case "pick matches configured ratios" test_pick_ratios;
          case "write-only never reads" test_pick_exhaustive_writes;
        ] );
      ( "bench_types",
        [
          case "metric_of_name resolves all known" test_metric_of_name_known;
          case "metric_of_name rejects unknown" test_metric_of_name_unknown;
        ] );
      ("collector", [ case "rows serialize to JSON" test_collector_rows ]);
      ( "matrix",
        [
          case "unsupported iff create raises" test_not_applicable;
          case "instances are the applicable cells" test_instances_matrix;
        ] );
    ]
