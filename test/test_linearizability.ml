(* Linearizability checking of concurrent histories for every data
   structure, using the exact per-key checker in Test_support. A failure
   here means some interleaving produced results no sequential set could
   have produced. *)

module Lin = Test_support.Linearizability
module Pool = Smr_core.Domain_pool
module Rng = Smr_core.Rng

module Check
    (S : Smr.Smr_intf.S)
    (L : Smr_ds.Ds_intf.MAP with type scheme = S.t and type handle = S.handle) =
struct
  let run () =
    for round = 1 to 3 do
      let scheme = S.create () in
      let t = L.create scheme in
      let recorder = Lin.make_recorder () in
      let keys = 24 in
      let logs =
        Pool.run ~n:3 (fun i ->
            let h = S.register scheme in
            let lo = L.make_local h in
            let tl = Lin.thread_log recorder in
            let rng = Rng.create ~seed:(round * 1000 + i) in
            for _ = 1 to 100 do
              let key = Rng.below rng keys in
              ignore
                (match Rng.below rng 3 with
                | 0 ->
                    Lin.record tl ~op:Lin.Insert ~key (fun () ->
                        L.insert t lo key key)
                | 1 ->
                    Lin.record tl ~op:Lin.Remove ~key (fun () ->
                        L.remove t lo key)
                | _ ->
                    Lin.record tl ~op:Lin.Get ~key (fun () ->
                        L.get t lo key <> None))
            done;
            L.clear_local lo;
            S.unregister h;
            tl)
      in
      Lin.merge recorder (Array.to_list logs);
      Alcotest.(check int) "recorded" 300 (Lin.total_events recorder);
      match Lin.check recorder with
      | () -> ()
      | exception Lin.Not_linearizable k ->
          Alcotest.failf "history not linearizable at key %d (round %d)" k
            round
    done
end

(* The checker itself must reject impossible histories. *)
let test_checker_rejects () =
  let r = Lin.make_recorder () in
  (* two sequential successful inserts of the same key, no remove *)
  r.Lin.events <-
    [
      { Lin.op = Lin.Insert; key = 1; ok = true; inv = 0; res = 1 };
      { Lin.op = Lin.Insert; key = 1; ok = true; inv = 2; res = 3 };
    ];
  Alcotest.check_raises "double insert rejected" (Lin.Not_linearizable 1)
    (fun () -> Lin.check r)

let test_checker_accepts_overlap () =
  let r = Lin.make_recorder () in
  (* two overlapping inserts: one may succeed, one must fail - here they
     overlap so either order works with these results *)
  r.Lin.events <-
    [
      { Lin.op = Lin.Insert; key = 1; ok = true; inv = 0; res = 3 };
      { Lin.op = Lin.Insert; key = 1; ok = false; inv = 1; res = 2 };
      { Lin.op = Lin.Get; key = 1; ok = true; inv = 4; res = 5 };
    ];
  Lin.check r

(* Property: a history whose operations each contain their linearization
   point inside the [inv, res] interval is accepted. Build it by executing a
   random op sequence against a sequential set, placing each op's interval
   around its execution order with random slack (overlapping freely). *)
let prop_checker_accepts_valid =
  QCheck2.Test.make ~name:"checker accepts interval-consistent histories"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 2) (int_range 0 4)))
    (fun script ->
      let present = Hashtbl.create 8 in
      let events =
        List.mapi
          (fun i (opc, key) ->
            let lin_point = (i * 10) + 5 in
            let op, ok =
              match opc with
              | 0 ->
                  let ok = not (Hashtbl.mem present key) in
                  Hashtbl.replace present key ();
                  (Lin.Insert, ok)
              | 1 ->
                  let ok = Hashtbl.mem present key in
                  Hashtbl.remove present key;
                  (Lin.Remove, ok)
              | _ -> (Lin.Get, Hashtbl.mem present key)
            in
            (* intervals may overlap neighbours by up to 9 ticks *)
            let slack_l = 1 + ((i * 7) mod 9) and slack_r = 1 + ((i * 3) mod 9) in
            { Lin.op; key; ok; inv = lin_point - slack_l; res = lin_point + slack_r })
          script
      in
      let r = Lin.make_recorder () in
      r.Lin.events <- events;
      match Lin.check r with
      | () -> true
      | exception Lin.Not_linearizable _ -> false)

let case name f = Alcotest.test_case name `Quick f

let () =
  let module C1 = Check (Hp) (Smr_ds.Hmlist.Make (Hp)) in
  let module C2 = Check (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus)) in
  let module C3 = Check (Ebr) (Smr_ds.Hhslist.Make (Ebr)) in
  let module C4 = Check (Pebr) (Smr_ds.Hashmap.Make (Pebr)) in
  let module C5 = Check (Hp_plus) (Smr_ds.Skiplist.Make (Hp_plus)) in
  let module C6 = Check (Hp) (Smr_ds.Skiplist.Make (Hp)) in
  let module C7 = Check (Hp_plus) (Smr_ds.Nmtree.Make (Hp_plus)) in
  let module C8 = Check (Hp) (Smr_ds.Efrbtree.Make (Hp)) in
  let module C9 = Check (Nr) (Smr_ds.Efrbtree.Make (Nr)) in
  let module C10 = Check (Hp_plus) (Smr_ds.Bonsai.Make (Hp_plus)) in
  let module C11 = Check (Rc) (Smr_ds.Bonsai.Make (Rc)) in
  let module C12 = Check (Hp_plus) (Smr_ds.Lazylist.Make (Hp_plus)) in
  Alcotest.run "linearizability"
    [
      ( "checker",
        [
          case "rejects impossible history" test_checker_rejects;
          case "accepts overlapping history" test_checker_accepts_overlap;
          QCheck_alcotest.to_alcotest prop_checker_accepts_valid;
        ] );
      ( "structures",
        [
          case "hmlist/HP" C1.run;
          case "hhslist/HP++" C2.run;
          case "hhslist/EBR" C3.run;
          case "hashmap/PEBR" C4.run;
          case "skiplist/HP++" C5.run;
          case "skiplist/HP" C6.run;
          case "nmtree/HP++" C7.run;
          case "efrbtree/HP" C8.run;
          case "efrbtree/NR" C9.run;
          case "bonsai/HP++" C10.run;
          case "bonsai/RC" C11.run;
          case "lazylist/HP++" C12.run;
        ] );
    ]
