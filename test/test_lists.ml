(* Correctness tests for HMList and HHSList across all applicable schemes:
   sequential oracle checks, qcheck properties, and multi-domain stress with
   the use-after-free detector on. *)

module Stats = Smr_core.Stats
module Suite = Test_support.Suite

module Hm_hp = Suite (Hp) (Smr_ds.Hmlist.Make (Hp))
module Hm_hpp = Suite (Hp_plus) (Smr_ds.Hmlist.Make (Hp_plus))
module Hm_ebr = Suite (Ebr) (Smr_ds.Hmlist.Make (Ebr))
module Hm_pebr = Suite (Pebr) (Smr_ds.Hmlist.Make (Pebr))
module Hm_rc = Suite (Rc) (Smr_ds.Hmlist.Make (Rc))
module Hm_nr = Suite (Nr) (Smr_ds.Hmlist.Make (Nr))
module Hhs_hpp = Suite (Hp_plus) (Smr_ds.Hhslist.Make (Hp_plus))
module Hhs_ebr = Suite (Ebr) (Smr_ds.Hhslist.Make (Ebr))
module Hhs_pebr = Suite (Pebr) (Smr_ds.Hhslist.Make (Pebr))
module Hhs_rc = Suite (Rc) (Smr_ds.Hhslist.Make (Rc))
module Hhs_nr = Suite (Nr) (Smr_ds.Hhslist.Make (Nr))
module Lz_hpp = Suite (Hp_plus) (Smr_ds.Lazylist.Make (Hp_plus))
module Lz_ebr = Suite (Ebr) (Smr_ds.Lazylist.Make (Ebr))
module Lz_pebr = Suite (Pebr) (Smr_ds.Lazylist.Make (Pebr))
module Lz_rc = Suite (Rc) (Smr_ds.Lazylist.Make (Rc))
module Lz_nr = Suite (Nr) (Smr_ds.Lazylist.Make (Nr))

(* The paper's applicability matrix, enforced at runtime: Harris's list
   cannot be protected by the original HP. *)
let test_hhslist_rejects_hp () =
  let module L = Smr_ds.Hhslist.Make (Hp) in
  let scheme = Hp.create () in
  match L.create scheme with
  | (_ : int L.t) -> Alcotest.fail "HHSList must reject HP"
  | exception Smr.Smr_intf.Unsupported_scheme _ -> ()

let test_lazylist_rejects_hp () =
  let module L = Smr_ds.Lazylist.Make (Hp) in
  let scheme = Hp.create () in
  match L.create scheme with
  | (_ : int L.t) -> Alcotest.fail "Lazylist must reject HP"
  | exception Smr.Smr_intf.Unsupported_scheme _ -> ()

(* HP++ variant ablation: both fence strategies drive the lists safely. *)
let test_hpp_plain_fence_list () =
  let module L = Smr_ds.Hhslist.Make (Hp_plus) in
  let scheme =
    Hp_plus.create
      ~config:{ Smr.Smr_intf.default_config with epoched_fence = false }
      ()
  in
  let t = L.create scheme in
  let h = Hp_plus.register scheme in
  let lo = L.make_local h in
  for k = 1 to 100 do
    assert (L.insert t lo k k)
  done;
  for k = 1 to 100 do
    if k mod 2 = 0 then assert (L.remove t lo k)
  done;
  Alcotest.(check int) "odd keys remain" 50 (L.size t);
  L.clear_local lo;
  Hp_plus.flush h;
  Hp_plus.flush h;
  Alcotest.(check int) "drained" 0 (Stats.unreclaimed (Hp_plus.stats scheme));
  Hp_plus.unregister h

(* Minor-heap words per successful HHSList insert and remove under HP++,
   on one domain. Inserts go in descending key order, so each lands at the
   head and retires nothing; the removes then take the keys in ascending
   order, so each finds its node first and unlinks it alone. An insert
   allocates the node and the crit-section closures: the node embeds its
   link and its header word, and a clean link is the node itself, so the
   insert makes neither a link block, a header block nor a tagged block.
   A remove allocates its one mark block (the deleted bit on the node's
   link), the crit-section closures and the TryUnlink batch (frontier,
   unlinked list and the deferred invalidation). *)
let minor_words_per_update () =
  let module L = Smr_ds.Hhslist.Make (Hp_plus) in
  let scheme = Hp_plus.create () in
  let t = L.create scheme in
  let h = Hp_plus.register scheme in
  let lo = L.make_local h in
  let n = 4096 in
  assert (L.insert t lo (n + 1) 0);
  let before = Gc.minor_words () in
  for k = n downto 1 do
    assert (L.insert t lo k k)
  done;
  let insert = (Gc.minor_words () -. before) /. float_of_int n in
  let before = Gc.minor_words () in
  for k = 1 to n do
    assert (L.remove t lo k)
  done;
  let remove = (Gc.minor_words () -. before) /. float_of_int n in
  L.clear_local lo;
  Hp_plus.unregister h;
  (insert, remove)

let test_alloc_per_insert ~bound () =
  let words, _ = minor_words_per_update () in
  Printf.printf "HP++: %.2f minor words per HHSList insert\n%!" words;
  if words > bound then
    Alcotest.failf
      "HP++: %.2f minor words per HHSList insert exceeds %.0f: the node no \
       longer embeds its link or its header, a clean link is boxed, or the \
       crit section allocates before its first restart"
      words bound

let test_alloc_per_remove ~bound () =
  let _, words = minor_words_per_update () in
  Printf.printf "HP++: %.2f minor words per HHSList remove\n%!" words;
  if words > bound then
    Alcotest.failf
      "HP++: %.2f minor words per HHSList remove exceeds %.0f: the remove \
       allocates more than its mark block, the crit section and its \
       TryUnlink batch"
      words bound

(* [C.with_crit] restarts its body on [`Prot] and [`Retry] and counts a
   protection failure for each [`Prot] restart only. *)
let test_with_crit_counts_prot () =
  let module C = Smr_ds.Ds_common.Make (Hp_plus) in
  let scheme = Hp_plus.create () in
  let stats = Hp_plus.stats scheme in
  let h = Hp_plus.register scheme in
  let script = [ `Prot; `Retry; `Prot; `Prot; `Retry; `Done 42 ] in
  let rest = ref script and calls = ref 0 in
  let body () =
    incr calls;
    match !rest with
    | r :: tl ->
        rest := tl;
        r
    | [] -> Alcotest.fail "body called after it was done"
  in
  let before = Stats.protection_failures stats in
  Alcotest.(check int) "result" 42 (C.with_crit h stats body);
  Alcotest.(check int) "one call per scripted outcome" (List.length script)
    !calls;
  Alcotest.(check int) "one failure per `Prot restart" 3
    (Stats.protection_failures stats - before);
  Alcotest.(check int) "none for a first-attempt completion" 0
    (let before = Stats.protection_failures stats in
     ignore (C.with_crit h stats (fun () -> `Done ()));
     Stats.protection_failures stats - before);
  Hp_plus.unregister h

(* An operation that completes on its first attempt allocates nothing in
   [C.with_crit]: no backoff state, no retry closure. *)
let test_with_crit_first_attempt_alloc () =
  let module C = Smr_ds.Ds_common.Make (Hp_plus) in
  let scheme = Hp_plus.create () in
  let stats = Hp_plus.stats scheme in
  let h = Hp_plus.register scheme in
  let body () = `Done 0 in
  ignore (C.with_crit h stats body);
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (C.with_crit h stats body))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Hp_plus.unregister h;
  if words > 0. then
    Alcotest.failf "%.2f minor words per first-attempt with_crit, want 0"
      words

(* A counting wrapper of a scheme, shaped like perfbench's [Timed]: every
   protect is counted and passed through, so [S.protect] is no longer
   [Slots.set] itself and [Ds_common] must keep the call path. *)
let protects = ref 0

module Counting (S : Smr.Smr_intf.S) = struct
  include S

  let protect g hdr =
    incr protects;
    S.protect g hdr

  let protection_valid h = S.protection_valid h
end

module Hpp_counted = Counting (Hp_plus)

(* The step's protect and validity are decided once per scheme: inline for
   the schemes whose [protect] is the slot store, a call for any wrapper. *)
let test_step_decision () =
  let check name (module S : Smr.Smr_intf.S) ~store ~valid =
    let module C = Smr_ds.Ds_common.Make (S) in
    Alcotest.(check bool) (name ^ " inline store") store C.inline_store;
    Alcotest.(check bool) (name ^ " inline validity") valid C.inline_valid
  in
  check "HP" (module Hp) ~store:true ~valid:true;
  check "HP++" (module Hp_plus) ~store:true ~valid:true;
  check "PEBR" (module Pebr) ~store:true ~valid:false;
  check "EBR" (module Ebr) ~store:false ~valid:false;
  check "counting HP++" (module Hpp_counted) ~store:false ~valid:false

let n_nodes = 64

(* An HHSList holding keys 0 .. n_nodes - 1, and one thread's local. *)
module Filled (S : Smr.Smr_intf.S) = struct
  module L = Smr_ds.Hhslist.Make (S)

  let make () =
    let scheme = S.create () in
    let l = L.make_local (S.register scheme) in
    let t = L.create scheme in
    for k = 0 to n_nodes - 1 do
      assert (L.insert t l k k)
    done;
    (t, l)
end

module Counted = Filled (Hpp_counted)
module Plain = Filled (Hp_plus)

(* Through the wrapper, a get still makes one protect per step onto a node:
   key k sits k + 1 steps from the head, and the step onto the null past
   the last node protects nothing. *)
let test_wrapper_counts_protects () =
  let t, l = Counted.make () in
  List.iter
    (fun (key, want) ->
      protects := 0;
      ignore (Counted.L.get t l key);
      Alcotest.(check int)
        (Printf.sprintf "protects for get %d" key)
        want !protects)
    [ (0, 1); (10, 11); (n_nodes - 1, n_nodes); (n_nodes, n_nodes) ]

(* An armed [Fault.Protect] kill at hit k fires on the same step whether the
   step stores inline or calls through the wrapper: the traced events up to
   the kill are the same kinds in the same order, with k - 1 validated
   steps before it. *)
let test_protect_kill_same_step () =
  let k = 5 in
  let kinds_until_kill get =
    Obs.Trace.enable ~capacity:4096 ();
    Fault.arm ~point:Fault.Protect ~action:Fault.Kill ~after:k ();
    (match get () with
    | (_ : int option) -> Alcotest.fail "get survived an armed Protect kill"
    | exception Fault.Killed Fault.Protect -> ());
    Fault.reset ();
    Obs.Trace.disable ();
    let s = Obs.Trace.snapshot () in
    Obs.Trace.reset ();
    Array.to_list (Array.map (fun e -> e.Obs.Trace.kind) s.Obs.Trace.events)
  in
  let t, l = Plain.make () in
  let inline = kinds_until_kill (fun () -> Plain.L.get t l (n_nodes - 1)) in
  let t, l = Counted.make () in
  protects := 0;
  let called = kinds_until_kill (fun () -> Counted.L.get t l (n_nodes - 1)) in
  Alcotest.(check int) "the wrapper saw k protects" k !protects;
  let steps = List.filter (fun e -> e = Obs.Trace.Step) in
  Alcotest.(check int) "k - 1 validated steps, inline" (k - 1)
    (List.length (steps inline));
  Alcotest.(check (list string))
    "same events either path"
    (List.map Obs.Trace.kind_name inline)
    (List.map Obs.Trace.kind_name called)

let () =
  Alcotest.run "lists"
    [
      ("hmlist:HP", Hm_hp.tests);
      ("hmlist:HP++", Hm_hpp.tests);
      ("hmlist:EBR", Hm_ebr.tests);
      ("hmlist:PEBR", Hm_pebr.tests);
      ("hmlist:RC", Hm_rc.tests);
      ("hmlist:NR", Hm_nr.tests);
      ("hhslist:HP++", Hhs_hpp.tests);
      ("hhslist:EBR", Hhs_ebr.tests);
      ("hhslist:PEBR", Hhs_pebr.tests);
      ("hhslist:RC", Hhs_rc.tests);
      ("hhslist:NR", Hhs_nr.tests);
      ("lazylist:HP++", Lz_hpp.tests);
      ("lazylist:EBR", Lz_ebr.tests);
      ("lazylist:PEBR", Lz_pebr.tests);
      ("lazylist:RC", Lz_rc.tests);
      ("lazylist:NR", Lz_nr.tests);
      ( "applicability",
        [
          Alcotest.test_case "HHSList rejects HP" `Quick test_hhslist_rejects_hp;
          Alcotest.test_case "Lazylist rejects HP" `Quick
            test_lazylist_rejects_hp;
          Alcotest.test_case "HP++ plain fence" `Quick test_hpp_plain_fence_list;
        ] );
      ( "tight reclaim",
        [
          Alcotest.test_case "hmlist HP++ churn" `Quick
            Hm_hpp.test_tight_churn;
          Alcotest.test_case "hhslist HP++ churn" `Quick
            Hhs_hpp.test_tight_churn;
          Alcotest.test_case "lazylist HP++ churn" `Quick
            Lz_hpp.test_tight_churn;
        ] );
      ( "alloc per step",
        [
          Alcotest.test_case "hhslist get over 512 nodes HP++" `Quick
            (Hhs_hpp.test_alloc_per_get ~size:512 ~bound:19.);
          Alcotest.test_case "hhslist get over 512 nodes EBR" `Quick
            (Hhs_ebr.test_alloc_per_get ~size:512 ~bound:19.);
          Alcotest.test_case "hhslist insert HP++" `Quick
            (test_alloc_per_insert ~bound:45.);
          Alcotest.test_case "hhslist remove HP++" `Quick
            (test_alloc_per_remove ~bound:101.);
        ] );
      ( "step decision",
        [
          Alcotest.test_case "inline for the slot schemes only" `Quick
            test_step_decision;
          Alcotest.test_case "wrapper counts one protect per step" `Quick
            test_wrapper_counts_protects;
          Alcotest.test_case "Protect kill fires on the same step" `Quick
            test_protect_kill_same_step;
        ] );
      ( "with_crit",
        [
          Alcotest.test_case "counts one failure per Prot restart" `Quick
            test_with_crit_counts_prot;
          Alcotest.test_case "first attempt allocates nothing" `Quick
            test_with_crit_first_attempt_alloc;
        ] );
    ]
