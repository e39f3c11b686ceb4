(* Shared test infrastructure. *)

module Linearizability = Linearizability

(* Generic correctness suite for map-like concurrent structures:
   sequential oracle checks, qcheck properties, and multi-domain stress with
   the use-after-free detector on. Shared by the list, hashmap, skiplist and
   tree tests. *)

module Stats = Smr_core.Stats
module Rng = Smr_core.Rng
module Domain_pool = Smr_core.Domain_pool

module Suite
    (S : Smr.Smr_intf.S)
    (L : Smr_ds.Ds_intf.MAP with type scheme = S.t and type handle = S.handle) =
struct
  let with_list f =
    let scheme = S.create () in
    let t = L.create scheme in
    let h = S.register scheme in
    let lo = L.make_local h in
    let finally () =
      L.clear_local lo;
      S.unregister h
    in
    Fun.protect ~finally (fun () -> f scheme t h lo)

  (* Minor-heap words allocated per [get] on one domain, after inserting
     keys [1 .. size]; lookups cycle through every key. Single-domain only:
     [Gc.minor_words] would count other domains' allocation too. *)
  let minor_words_per_get ~size =
    with_list (fun _ t _ lo ->
        for k = 1 to size do
          assert (L.insert t lo k k)
        done;
        let ops = 4 * size in
        ignore (L.get t lo 1);
        let before = Gc.minor_words () in
        for i = 1 to ops do
          ignore (Sys.opaque_identity (L.get t lo (1 + (i mod size))))
        done;
        (Gc.minor_words () -. before) /. float_of_int ops)

  (* A traversal step (protect, validate, step) allocates nothing, so a get
     costs a fixed handful of words per operation — the crit-section
     closure and the result — however many nodes it walks. *)
  let test_alloc_per_get ~size ~bound () =
    let words = minor_words_per_get ~size in
    Printf.printf "%s: %.1f minor words per get over %d entries\n%!" S.name
      words size;
    if words > bound then
      Alcotest.failf
        "%s: %.1f minor words per get over %d entries exceeds %.0f: the \
         traversal allocates per step"
        S.name words size bound

  (* The same, pinned by depth: a get over 512 sequentially inserted keys
     may cost at most one minor word more than one over 64, so no step of
     the walk allocates, whatever the structure's shape. *)
  let test_alloc_by_depth () =
    let shallow = minor_words_per_get ~size:64 in
    let deep = minor_words_per_get ~size:512 in
    Printf.printf "%s: %.1f minor words per get over 64 keys, %.1f over 512\n%!"
      S.name shallow deep;
    if deep > shallow +. 1. then
      Alcotest.failf
        "%s: %.1f minor words per get over 512 keys against %.1f over 64: \
         the traversal allocates per step"
        S.name deep shallow

  let test_sequential_basics () =
    with_list (fun _ t _ lo ->
        Alcotest.(check bool) "insert 5" true (L.insert t lo 5 50);
        Alcotest.(check bool) "insert 3" true (L.insert t lo 3 30);
        Alcotest.(check bool) "insert 8" true (L.insert t lo 8 80);
        Alcotest.(check bool) "dup rejected" false (L.insert t lo 5 55);
        Alcotest.(check (option int)) "get 3" (Some 30) (L.get t lo 3);
        Alcotest.(check (option int)) "get missing" None (L.get t lo 4);
        Alcotest.(check (list (pair int int)))
          "sorted" [ (3, 30); (5, 50); (8, 80) ] (L.to_list t);
        Alcotest.(check bool) "remove 5" true (L.remove t lo 5);
        Alcotest.(check bool) "remove 5 again" false (L.remove t lo 5);
        Alcotest.(check (option int)) "5 gone" None (L.get t lo 5);
        Alcotest.(check int) "size" 2 (L.size t))

  let test_sequential_oracle () =
    with_list (fun scheme t h lo ->
        let rng = Rng.create ~seed:42 in
        let oracle = Hashtbl.create 64 in
        for _ = 1 to 3000 do
          let key = Rng.below rng 48 in
          match Rng.below rng 3 with
          | 0 ->
              let expected = not (Hashtbl.mem oracle key) in
              Alcotest.(check bool) "insert agrees" expected
                (L.insert t lo key (key * 2));
              Hashtbl.replace oracle key (key * 2)
          | 1 ->
              let expected = Hashtbl.mem oracle key in
              Alcotest.(check bool) "remove agrees" expected (L.remove t lo key);
              Hashtbl.remove oracle key
          | _ ->
              let expected = Hashtbl.find_opt oracle key in
              Alcotest.(check (option int)) "get agrees" expected
                (L.get t lo key)
        done;
        let expected =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle []
          |> List.sort compare
        in
        Alcotest.(check (list (pair int int))) "final contents" expected
          (L.to_list t);
        L.assert_reachable_not_freed t;
        (* Release all hazard slots before asserting drainage: retired
           blocks still protected by this local's guards are correctly
           withheld from reclamation. *)
        L.clear_local lo;
        S.flush h;
        S.flush h;
        if S.name <> "NR" then
          Alcotest.(check int) "garbage drained" 0
            (Stats.unreclaimed (S.stats scheme)))

  let prop_oracle =
    QCheck2.Test.make ~name:("oracle agreement (" ^ S.name ^ ")") ~count:30
      QCheck2.Gen.(list (pair (int_range 0 2) (int_range 0 15)))
      (fun ops ->
        with_list (fun _ t _ lo ->
            let oracle = Hashtbl.create 16 in
            List.for_all
              (fun (op, key) ->
                match op with
                | 0 ->
                    let expected = not (Hashtbl.mem oracle key) in
                    Hashtbl.replace oracle key key;
                    L.insert t lo key key = expected
                | 1 ->
                    let expected = Hashtbl.mem oracle key in
                    Hashtbl.remove oracle key;
                    L.remove t lo key = expected
                | _ -> L.get t lo key = Hashtbl.find_opt oracle key)
              ops))

  let check_wellformed t =
    let contents = L.to_list t in
    let keys = List.map fst contents in
    Alcotest.(check (list int)) "sorted, no duplicates"
      (List.sort_uniq compare keys)
      keys;
    L.assert_reachable_not_freed t

  let test_concurrent_disjoint_inserts () =
    let scheme = S.create () in
    let t = L.create scheme in
    let n = 4 and per = 50 in
    let _ =
      Domain_pool.run ~n (fun i ->
          let h = S.register scheme in
          let lo = L.make_local h in
          for k = 0 to per - 1 do
            assert (L.insert t lo ((k * n) + i) k)
          done;
          L.clear_local lo;
          S.unregister h)
    in
    Alcotest.(check int) "all present" (n * per) (L.size t);
    check_wellformed t

  (* Each domain owns the keys congruent to its index and cycles
     insert/remove on them; afterwards membership must match each owner's
     last action exactly. *)
  let test_concurrent_owned_churn () =
    let scheme = S.create () in
    let t = L.create scheme in
    let n = 4 and keys_per = 8 and rounds = 300 in
    let finals =
      Domain_pool.run ~n (fun i ->
          let h = S.register scheme in
          let lo = L.make_local h in
          let rng = Rng.create ~seed:(1000 + i) in
          let state = Array.make keys_per false in
          for _ = 1 to rounds do
            let j = Rng.below rng keys_per in
            let key = (j * n) + i in
            if state.(j) then assert (L.remove t lo key)
            else assert (L.insert t lo key i);
            state.(j) <- not state.(j)
          done;
          L.clear_local lo;
          S.unregister h;
          state)
    in
    let fresh = S.register scheme in
    let lo = L.make_local fresh in
    Array.iteri
      (fun i state ->
        Array.iteri
          (fun j present ->
            let key = (j * n) + i in
            Alcotest.(check bool)
              (Printf.sprintf "key %d membership" key)
              present
              (L.get t lo key <> None))
          state)
      finals;
    check_wellformed t;
    L.clear_local lo;
    S.flush fresh;
    S.flush fresh;
    if S.name <> "NR" then
      Alcotest.(check int) "garbage drained" 0
        (Stats.unreclaimed (S.stats scheme));
    S.unregister fresh

  (* Free-for-all stress under the UAF detector: any unsafe reclamation
     raises inside a worker and fails the test. *)
  let test_concurrent_stress () =
    let scheme = S.create () in
    let t = L.create scheme in
    let counts =
      Domain_pool.run_timed ~n:4 ~duration:0.2 (fun i ~stop ->
          let h = S.register scheme in
          let lo = L.make_local h in
          let rng = Rng.create ~seed:(7 * (i + 1)) in
          let ops = ref 0 in
          while not (stop ()) do
            let key = Rng.below rng 32 in
            (match Rng.below rng 4 with
            | 0 | 1 -> ignore (L.get t lo key)
            | 2 -> ignore (L.insert t lo key key)
            | _ -> ignore (L.remove t lo key));
            incr ops
          done;
          L.clear_local lo;
          S.unregister h;
          !ops)
    in
    Array.iter
      (fun c -> Alcotest.(check bool) "worker made progress" true (c > 0))
      counts;
    check_wellformed t

  (* Churn with both reclamation thresholds at 1: every unlink is
     invalidated at once and every retire runs a hazard scan, so a block
     is freed as soon as no slot names it. A traversal that reads a node
     its guards no longer protect then trips the UAF detector inside a
     worker, and the trace replay flags any free inside a protection
     window or step out of a freed node. (A lost protection on a node
     whose link is only validated or CASed stays silent: the simulated
     heap never reuses a block, and HP++ invalidates before it retires,
     so the stale read fails validation.) Two domains over 8 keys keep
     chains short but contended; the size oracle is the sum of each
     domain's successful inserts minus its successful removes. *)
  let test_tight_churn () =
    let config =
      {
        Smr.Smr_intf.default_config with
        reclaim_threshold = 1;
        invalidate_threshold = 1;
      }
    in
    let scheme = S.create ~config () in
    let t = L.create scheme in
    let n = 2 and keys = 8 and ops = 3000 in
    Obs.Trace.enable ~capacity:(1 lsl 17) ();
    let deltas =
      Fun.protect ~finally:Obs.Trace.disable (fun () ->
          Domain_pool.run ~n (fun i ->
              let h = S.register scheme in
              let lo = L.make_local h in
              let rng = Rng.create ~seed:(97 * (i + 1)) in
              let delta = ref 0 in
              for _ = 1 to ops do
                let key = Rng.below rng keys in
                match Rng.below rng 3 with
                | 0 -> (
                    match L.get t lo key with
                    | Some v when v <> key ->
                        failwith (Printf.sprintf "get %d returned %d" key v)
                    | _ -> ())
                | 1 -> if L.insert t lo key key then incr delta
                | _ -> if L.remove t lo key then decr delta
              done;
              L.clear_local lo;
              S.unregister h;
              !delta))
    in
    let snap = Obs.Trace.snapshot () in
    Obs.Trace.reset ();
    Alcotest.(check int) "size oracle" (Array.fold_left ( + ) 0 deltas)
      (L.size t);
    check_wellformed t;
    match Obs.Check.run_snapshot snap with
    | Ok _ | Error [] -> ()
    | Error (v :: rest) ->
        Alcotest.failf "trace violation: %s (+%d more)"
          (Format.asprintf "%a" Obs.Check.pp_violation v)
          (List.length rest)

  let tests =
    [
      Alcotest.test_case "sequential basics" `Quick test_sequential_basics;
      Alcotest.test_case "sequential oracle" `Quick test_sequential_oracle;
      QCheck_alcotest.to_alcotest prop_oracle;
      Alcotest.test_case "concurrent disjoint inserts" `Quick
        test_concurrent_disjoint_inserts;
      Alcotest.test_case "concurrent owned churn" `Quick
        test_concurrent_owned_churn;
      Alcotest.test_case "concurrent stress" `Slow test_concurrent_stress;
    ]
end

