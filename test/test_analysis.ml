(* Tests for the smr_lint static analyzer (lib/analysis), v2 layering:
   the syntactic rules (R2-R5, the fast pre-pass), the flow rules F1-F7
   produced by the dataflow engine, the engine internals (lattice laws,
   CFG corner cases, summary fixpoint on mutual recursion), pinned output
   formats, the pragma machinery, and the seeded-bug corpus matrix over
   test/lint_corpus/. Fixtures are parsed, never typed, so they only need
   to be syntactically valid OCaml. *)

module Engine = Analysis.Engine
module Finding = Analysis.Finding
module Lattice = Analysis.Lattice
module Summary = Analysis.Summary
module Rules_flow = Analysis.Rules_flow
module Sarif = Analysis.Sarif

(* Fixture paths carry the scope components the engine dispatches on; the
   leading /virtual/ segment checks that scope matching is anchored to the
   lib/... suffix, not to the tree root. *)
let ds_path = "/virtual/lib/ds/fixture.ml"
let scheme_path = "/virtual/lib/core/fixture.ml"
let smr_path = "/virtual/lib/smr/fixture.ml"
let misc_path = "/virtual/lib/misc/fixture.ml"

let analyze ?(mli_exists = true) ~path text =
  Engine.analyze_source ~mli_exists ~path text

let rule_ids findings = List.map (fun (f : Finding.t) -> f.rule.id) findings

let check_fires name rule ~path ?mli_exists text =
  let findings, _ = analyze ~path ?mli_exists text in
  Alcotest.(check bool)
    (name ^ ": " ^ rule ^ " fires")
    true
    (List.mem rule (rule_ids findings))

let check_silent name ~path ?mli_exists text =
  let findings, _ = analyze ~path ?mli_exists text in
  Alcotest.(check (list string)) (name ^ ": silent") [] (rule_ids findings)

(* --- raw traversal fixtures, shared by the F1 and pragma tests ------------ *)

let raw_bad =
  {|
let lookup t key =
  let rec go l =
    let r = Link.get l in
    match Tagged.shape r with
    | Tagged.Null -> None
    | Tagged.Ptr ->
        let n = Tagged.node r in
        if n.key = key then Some n.value else go n.next
  in
  go t.head
|}

(* Same shape, but the traversal validates each step through try_protect. *)
let raw_good_protected =
  {|
let lookup t l key =
  let rec go src link expected =
    let cur =
      C.try_protect ~src l.hp l.handle ~src_link:link expected
    in
    if Tagged.is_invalid cur then None
    else
      match Tagged.shape cur with
      | Tagged.Null -> None
      | Tagged.Ptr ->
          let n = Tagged.node cur in
          if n.key = key then Some n.value
          else go (Mem.of_node n) n.next (Link.get n.next)
  in
  go Mem.phantom t.head (Link.get t.head)
|}

(* Raw read without dereferencing the fetched node (Treiber push). *)
let raw_good_no_deref =
  {|
let push t v =
  let n = { value = v; next = Link.make Tagged.null } in
  let rec loop () =
    let h = Link.get t.head in
    Link.set n.next h;
    if not (Link.cas t.head h (Tagged.make n)) then loop ()
  in
  loop ()
|}

(* --- R2: invalidate-before-free ------------------------------------------ *)

let r2_bad =
  {|
let flush d =
  List.iter (fun h -> Mem.free_mark h) d.bag;
  do_invalidation d.bag;
  d.bag <- []
|}

let r2_good =
  {|
let flush d =
  do_invalidation d.bag;
  List.iter (fun h -> Mem.free_mark h) d.bag;
  d.bag <- []
|}

let test_r2 () =
  check_fires "free before invalidation" "R2" ~path:scheme_path r2_bad;
  check_silent "invalidation first" ~path:scheme_path r2_good;
  (* a function that only frees (classic HP reclaim) has no ordering to get
     wrong *)
  check_silent "free only" ~path:scheme_path
    "let reclaim_all d = List.iter Mem.free_mark d.bag"

(* --- R3: shared-mutable-field --------------------------------------------- *)

let r3_bad =
  {|
type slot = { value : int Atomic.t; mutable owner : int }
|}

(* The mutable field lives one type away from the Atomic-bearing record;
   reachability must still find it. *)
let r3_bad_reachable =
  {|
type chunk = { mutable cursor : int }
type registry = { head : chunk Atomic.t; chunks : chunk list }
|}

let r3_good_handle =
  {|
type shared = { head : int Atomic.t }
type handle = { shared : shared; mutable my_epoch : int }
|}

let test_r3 () =
  check_fires "mutable next to Atomic" "R3" ~path:smr_path r3_bad;
  check_fires "mutable reachable from Atomic" "R3" ~path:smr_path
    r3_bad_reachable;
  (* the handle/shared split: mutables in per-domain handle types are the
     sanctioned pattern, not a race *)
  check_silent "per-handle mutable" ~path:smr_path r3_good_handle;
  check_silent "out of shared-state scope" ~path:ds_path r3_bad

(* --- R4: unguarded-trace-alloc -------------------------------------------- *)

let r4_bad =
  {|
let record t n = Trace.emit Trace.Retire (List.length (collect t n)) 0 0
|}

let r4_good_guarded =
  {|
let record t n =
  if Trace.enabled () then
    Trace.emit Trace.Retire (List.length (collect t n)) 0 0
|}

let r4_good_simple =
  {|
let record h tag = Trace.emit Trace.Retire (Mem.uid h) (tag land 3) 0
|}

let test_r4 () =
  check_fires "allocating args unguarded" "R4" ~path:smr_path r4_bad;
  check_silent "guarded" ~path:smr_path r4_good_guarded;
  check_silent "simple args need no guard" ~path:smr_path r4_good_simple;
  (* negated guard shape: emit in the else branch *)
  check_silent "negated guard" ~path:smr_path
    {|
let record t n =
  if not (Trace.enabled ()) then ()
  else Trace.emit Trace.Retire (List.length (collect t n)) 0 0
|}

(* --- R5: missing-mli ------------------------------------------------------- *)

let test_r5 () =
  check_fires "no mli" "R5" ~path:smr_path ~mli_exists:false "let x = 1";
  check_silent "mli present" ~path:smr_path ~mli_exists:true "let x = 1";
  (* out of lib scope entirely: nothing runs *)
  check_silent "outside lib" ~path:"/virtual/bin/fixture.ml" ~mli_exists:false
    "let x = 1"

(* --- F1/F2: must-dominate deref and protected escape ----------------------- *)

let test_f1_basics () =
  check_fires "raw traversal" "F1" ~path:ds_path raw_bad;
  (* the raw read reaches the deref through a local helper's argument *)
  check_fires "flow through local call" "F1" ~path:ds_path
    {|
let to_list t =
  let rec walk acc tg =
    match Tagged.shape tg with
    | Tagged.Null -> List.rev acc
    | Tagged.Ptr ->
        let n = Tagged.node tg in
        walk (n.value :: acc) (Link.get n.next)
  in
  walk [] (Link.get t.head)
|};
  check_silent "protected traversal" ~path:ds_path raw_good_protected;
  check_silent "no deref of fetched node" ~path:ds_path raw_good_no_deref;
  check_silent "out of ds scope" ~path:scheme_path raw_bad;
  (* a try_protect result is Validated only on its not-invalid branch:
     matching its shape unchecked, or checking it after rebinding its
     name, validates nothing *)
  check_fires "try_protect result matched unchecked" "F1" ~path:ds_path
    {|
let peek t l =
  let r =
    C.try_protect ~src:Mem.phantom l.hp l.handle ~src_link:t.head
      (Link.get t.head)
  in
  match Tagged.shape r with
  | Tagged.Ptr -> (Tagged.node r).key
  | Tagged.Null -> 0
|};
  check_fires "rebound name loses the refinement" "F1" ~path:ds_path
    {|
let peek t l =
  let r =
    C.try_protect ~src:Mem.phantom l.hp l.handle ~src_link:t.head
      (Link.get t.head)
  in
  let r = Link.get t.head in
  if Tagged.is_invalid r then 0
  else match Tagged.shape r with Tagged.Ptr -> (Tagged.node r).key | Tagged.Null -> 0
|};
  (* announced but never validated: still F1 *)
  check_fires "protected but never validated" "F1" ~path:ds_path
    {|
let peek t l =
  let cur = Link.get t.head in
  S.protect l.hp cur;
  match Tagged.shape cur with Tagged.Ptr -> (Tagged.node cur).key | Tagged.Null -> 0
|}

(* Must-dominate at a join: one branch validates, the other does not, so
   the deref below the merge is still an error; the twin validating on
   every path is silent. *)
let test_f1_join () =
  check_fires "conditional validation" "F1" ~path:ds_path
    {|
let lookup t l b =
  let cur = Link.get t.head in
  S.protect l.hp cur;
  (if b then if not (S.protection_valid l.handle) then raise Exit);
  match Tagged.shape cur with Tagged.Ptr -> (Tagged.node cur).key | Tagged.Null -> 0
|};
  check_silent "unconditional validation" ~path:ds_path
    {|
let lookup t l =
  let cur = Link.get t.head in
  S.protect l.hp cur;
  if not (S.protection_valid l.handle) then raise Exit;
  match Tagged.shape cur with Tagged.Ptr -> (Tagged.node cur).key | Tagged.Null -> 0
|}

(* CFG corner cases: the deref lives in a while-loop condition, in a try
   handler, and under a validate-or-raise guarded by a local handler. *)
let test_f1_cfg_corners () =
  check_fires "deref in while condition" "F1" ~path:ds_path
    {|
let spin t =
  while (let h = Link.get t.head in match Tagged.shape h with Tagged.Ptr -> (Tagged.node h).key = 0 | Tagged.Null -> false) do
    ignore (Link.get t.head)
  done
|};
  check_fires "deref in exception handler" "F1" ~path:ds_path
    {|
let risky t =
  try find t with Not_found ->
    (let h = Link.get t.head in match Tagged.shape h with Tagged.Ptr -> (Tagged.node h).key | Tagged.Null -> 0)
|};
  check_silent "validate-or-raise with local handler" ~path:ds_path
    {|
let safe t l =
  try
    let cur = Link.get t.head in
    S.protect l.hp cur;
    if not (S.protection_valid l.handle) then raise Restart;
    match Tagged.shape cur with Tagged.Ptr -> Some (Tagged.node cur).key | Tagged.Null -> None
  with Restart -> None
|}

(* Interprocedural summaries: the deref hides inside a helper, the caller
   supplies the pointer. *)
let test_f1_interprocedural () =
  check_fires "raw arg into deref-ing helper" "F1" ~path:ds_path
    {|
let read_key n = n.key

let lookup t =
  let h = Link.get t.head in
  match Tagged.shape h with
  | Tagged.Null -> 0
  | Tagged.Ptr -> read_key (Tagged.node h)
|};
  check_silent "validated arg into deref-ing helper" ~path:ds_path
    {|
let read_key n = n.key

let lookup t l =
  let cur =
    C.try_protect ~src:Mem.phantom l.hp l.handle ~src_link:t.head
      (Link.get t.head)
  in
  if Tagged.is_invalid cur then 0
  else match Tagged.shape cur with Tagged.Null -> 0 | Tagged.Ptr -> read_key (Tagged.node cur)
|}

let test_f2 () =
  check_fires "return of merely-Protected" "F2" ~path:ds_path
    {|
let peek t l =
  let cur = Link.get t.head in
  S.protect l.hp cur;
  cur
|};
  check_silent "validated before escape" ~path:ds_path
    {|
let peek t l =
  let cur = Link.get t.head in
  S.protect l.hp cur;
  if S.protection_valid l.handle then cur else Tagged.null
|}

(* --- F3: retire discipline -------------------------------------------------- *)

let test_f3 () =
  check_fires "retire after publish" "F3" ~path:ds_path
    {|
let push t l v =
  let n = { value = v; next = Link.make Tagged.null } in
  let h = Link.get t.head in
  Link.set n.next h;
  if Link.cas t.head h (Tagged.make n) then S.retire l.handle n
|};
  check_fires "deref of retired param" "F3" ~path:ds_path
    {|
let drop l cur =
  S.retire l.handle cur;
  ignore cur.value
|};
  (* Treiber pop: unlink first, and the retiring domain may still read the
     node under its own (still-held) validated protection *)
  check_silent "unlink then retire" ~path:ds_path
    {|
let pop t l =
  let cur =
    C.try_protect ~src:Mem.phantom l.hp l.handle ~src_link:t.head
      (Link.get t.head)
  in
  if Tagged.is_invalid cur then None
  else
    match Tagged.shape cur with
    | Tagged.Null -> None
    | Tagged.Ptr ->
        let n = Tagged.node cur in
        if Link.cas t.head cur (Link.get n.next) then begin
          S.retire l.handle cur;
          Some n.value
        end
        else None
|}

(* --- F4: collector handoff -------------------------------------------------- *)

let test_f4 () =
  check_fires "bag used after successful offer" "F4" ~path:smr_path
    {|
let flush t =
  let bag = t.pending in
  if Collector.offer t.ring bag then
    List.iter (fun h -> Mem.free_mark h) bag
  else push_back t bag
|};
  check_silent "bag replaced on success, freed on failure" ~path:smr_path
    {|
let flush t =
  let bag = t.pending in
  if Collector.offer t.ring bag then t.pending <- []
  else List.iter (fun h -> Mem.free_mark h) bag
|}

(* --- F5: crit hygiene -------------------------------------------------------- *)

let test_f5 () =
  check_fires "blocking write inside crit" "F5" ~path:misc_path
    {|
let publish handle stats fd page =
  with_crit handle stats (fun () ->
      ignore (Unix.write fd page 0 (Bytes.length page)))
|};
  check_silent "blocking write after crit" ~path:misc_path
    {|
let publish handle stats fd =
  let page = with_crit handle stats (fun () -> render stats) in
  ignore (Unix.write fd page 0 (Bytes.length page))
|}

(* --- F6: counter read order (the PR 2 stats bug shape) ----------------------- *)

let test_f6 () =
  check_fires "both operands sweep counters" "F6" ~path:misc_path
    "let unreclaimed s = retired_total s - freed s";
  check_silent "increasing side bound first" ~path:misc_path
    "let unreclaimed s =\n  let r = retired_total s in\n  r - freed s"

(* --- F7: quiescent mixing ---------------------------------------------------- *)

let test_f7 () =
  check_fires "quiescent read in a CASing function" "F7" ~path:ds_path
    {|
let rotate t =
  let cur = Link.get_quiescent t.head in
  ignore (Link.cas t.head cur cur)
|};
  check_silent "quiescent-only sweep" ~path:ds_path
    {|
let length t =
  let rec go acc l =
    let r = Link.get_quiescent l in
    match Tagged.shape r with
    | Tagged.Null -> acc
    | Tagged.Ptr -> go (acc + 1) (Tagged.node r).next
  in
  go 0 t.head
|}

(* --- Engine internals: lattice laws ------------------------------------------ *)

let st = Alcotest.testable (Fmt.of_to_string Lattice.to_string) Lattice.equal

let test_lattice_laws () =
  let all = Lattice.all in
  List.iter
    (fun a ->
      Alcotest.check st "join idempotent" a (Lattice.join a a);
      Alcotest.check st "widen = join on idem" (Lattice.widen a a)
        (Lattice.join a a);
      Alcotest.check st "Bot left identity" a (Lattice.join Lattice.Bot a);
      Alcotest.check st "Bot right identity" a (Lattice.join a Lattice.Bot);
      Alcotest.(check bool) "leq reflexive" true (Lattice.leq a a))
    all;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let j = Lattice.join a b in
          Alcotest.check st "join commutative" j (Lattice.join b a);
          Alcotest.check st "widen agrees with join" j (Lattice.widen a b);
          (* total order by rank: a merge never invents a third state, and
             the less-protected side wins *)
          Alcotest.(check bool)
            "join is a chain merge" true
            (Lattice.equal j a || Lattice.equal j b);
          if a <> Lattice.Bot && b <> Lattice.Bot then
            Alcotest.(check int) "weakest wins"
              (min (Lattice.rank a) (Lattice.rank b))
              (Lattice.rank j);
          (* join is the least upper bound of leq *)
          Alcotest.(check bool) "a leq join" true (Lattice.leq a j);
          Alcotest.(check bool) "b leq join" true (Lattice.leq b j);
          List.iter
            (fun c ->
              Alcotest.check st "join associative"
                (Lattice.join a (Lattice.join b c))
                (Lattice.join (Lattice.join a b) c))
            all)
        all)
    all;
  (* ascending chain bound: ranks are pairwise distinct, so any strictly
     ascending chain is at most [height] long and loop relaxations
     terminate within height sweeps per object *)
  Alcotest.(check int) "height" 8 Lattice.height;
  Alcotest.(check int) "ranks pairwise distinct" (List.length all)
    (List.length
       (List.sort_uniq compare (List.map Lattice.rank all)))

let test_fact_laws () =
  let facts =
    List.concat_map
      (fun s ->
        [ { Lattice.st = s; published = false };
          { Lattice.st = s; published = true } ])
      Lattice.all
  in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        "fact join idempotent" true
        (Lattice.fact_equal (Lattice.join_fact a a) a);
      List.iter
        (fun b ->
          let j = Lattice.join_fact a b in
          Alcotest.(check bool)
            "fact join commutative" true
            (Lattice.fact_equal j (Lattice.join_fact b a));
          Alcotest.(check bool)
            "published or-joins" (a.Lattice.published || b.Lattice.published)
            j.Lattice.published)
        facts)
    facts

(* --- Engine internals: summary fixpoint on mutual recursion ------------------ *)

let mutual_src =
  {|
let rec walk t l link expected =
  let cur =
    C.try_protect ~src:Mem.phantom l.hp l.handle ~src_link:link
      expected
  in
  if Tagged.is_invalid cur then None else step t l cur

and step t l cur =
  match Tagged.shape cur with
  | Tagged.Null -> None
  | Tagged.Ptr ->
      let n = Tagged.node cur in
      walk t l n.next (Link.get n.next)
|}

let converge_summaries src =
  let ast = Parse.implementation (Lexing.from_string src) in
  let _, summaries = Rules_flow.converge ~ext:(fun ~qual:_ _ -> None) ast in
  summaries

let find_summary summaries name =
  match
    Array.to_list summaries
    |> List.find_opt (fun s -> s.Summary.s_name = name)
  with
  | Some s -> s
  | None -> Alcotest.failf "no summary for %s" name

let test_mutual_fixpoint () =
  let summaries = converge_summaries mutual_src in
  let step = find_summary summaries "step" in
  let walk = find_summary summaries "walk" in
  (* step derefs its Raw-seeded pointer param [cur]; walk never derefs its
     pointer params [link]/[expected] raw (the deref it reaches sits behind
     try_protect validation or inside step, which it only enters with a
     validated argument). The handle param [l] is a plain record both halves
     project fields from, so it legitimately reads raw in both. *)
  Alcotest.(check int) "step arity" 3 step.Summary.s_arity;
  Alcotest.(check int) "walk arity" 4 walk.Summary.s_arity;
  Alcotest.(check bool) "step derefs cur raw" true
    step.Summary.s_derefs_raw.(2);
  Alcotest.(check bool) "walk never derefs link raw" false
    walk.Summary.s_derefs_raw.(2);
  Alcotest.(check bool) "walk never derefs expected raw" false
    walk.Summary.s_derefs_raw.(3);
  (* convergence is a fixpoint: a second independent run lands on the
     same summaries *)
  let again = converge_summaries mutual_src in
  Alcotest.(check int) "same count" (Array.length summaries)
    (Array.length again);
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        ("summary " ^ s.Summary.s_name ^ " deterministic")
        true
        (Summary.equal s again.(i)))
    summaries

let test_mutual_behavior () =
  (* the good twin is proven safe across the cycle; passing a raw pointer
     into the deref-ing half of the cycle is flagged at the call site *)
  check_silent "mutual traversal" ~path:ds_path mutual_src;
  check_fires "raw arg into recursive cycle" "F1" ~path:ds_path
    {|
let rec walk t l link expected =
  let cur =
    C.try_protect ~src:Mem.phantom l.hp l.handle ~src_link:link
      expected
  in
  if Tagged.is_invalid cur then step t l (Link.get link) else step t l cur

and step t l cur =
  match Tagged.shape cur with
  | Tagged.Null -> None
  | Tagged.Ptr ->
      let n = Tagged.node cur in
      walk t l n.next (Link.get n.next)
|}

(* --- Engine internals: sidecar round trip ------------------------------------ *)

let test_sidecar_roundtrip () =
  let table = Summary.empty_table () in
  let _ = Engine.analyze_source ~mli_exists:true ~table ~path:ds_path mutual_src in
  let parsed = Summary.table_of_json (Summary.table_to_json table) in
  Alcotest.(check int) "entry count preserved"
    (Hashtbl.length table) (Hashtbl.length parsed);
  Alcotest.(check bool) "has entries" true (Hashtbl.length table > 0);
  Hashtbl.iter
    (fun key s ->
      match Hashtbl.find_opt parsed key with
      | None -> Alcotest.failf "lost %s in round trip" key
      | Some s' ->
          Alcotest.(check bool) (key ^ " summary survives round trip") true
            (Summary.equal s s'))
    table

(* --- Pinned output formats --------------------------------------------------- *)

let pin_path = "/virtual/lib/misc/pin.ml"
let pin_src = "let unreclaimed s = retired_total s - freed s"

let pin_finding () =
  match analyze ~path:pin_path pin_src with
  | [ f ], _ -> f
  | findings, _ ->
      Alcotest.failf "expected exactly one finding, got %d"
        (List.length findings)

let test_human_pinned () =
  Alcotest.(check string) "human line is byte-stable"
    "/virtual/lib/misc/pin.ml:1: [F6 counter-read-order] both operands of \
     this subtraction sweep monotonic counters: OCaml evaluates operands \
     right-to-left, so the decreasing side is swept first and a reader \
     preempted between sweeps overshoots by the backlog; bind the \
     increasing side with a `let` before subtracting"
    (Finding.to_human (pin_finding ()))

let test_json_pinned () =
  Alcotest.(check string) "json object is byte-stable"
    "{\"rule\":\"F6\",\"slug\":\"counter-read-order\",\
     \"file\":\"/virtual/lib/misc/pin.ml\",\"line\":1,\"message\":\"both \
     operands of this subtraction sweep monotonic counters: OCaml \
     evaluates operands right-to-left, so the decreasing side is swept \
     first and a reader preempted between sweeps overshoots by the \
     backlog; bind the increasing side with a `let` before subtracting\"}"
    (Finding.to_json (pin_finding ()))

let test_sarif_columns () =
  let sarif = Sarif.render [ pin_finding () ] in
  let has needle =
    let n = String.length needle and h = String.length sarif in
    let rec go i = i + n <= h && (String.sub sarif i n = needle || go (i + 1)) in
    go 0
  in
  (* the subtraction starts at column 21 of the pin line; human/JSON modes
     do not print columns (pinned above), SARIF must *)
  Alcotest.(check bool) "column-accurate region" true
    (has "\"region\":{\"startLine\":1,\"startColumn\":21}");
  Alcotest.(check bool) "ruleId present" true (has "\"ruleId\":\"F6\"");
  Alcotest.(check bool) "schema stamped" true (has "\"version\":\"2.1.0\"")

(* --- pragmas ----------------------------------------------------------------- *)

let test_pragma_suppression () =
  let text =
    {|
let lookup t key =
  let rec go l =
    let r = Link.get l in
    match Tagged.shape r with
    | Tagged.Null -> None
    | Tagged.Ptr ->
        let n = Tagged.node r in
        (* smr-lint: allow F1 — fixture: reads run quiescently *)
        if n.key = key then Some n.value else go n.next
  in
  go t.head
|}
  in
  let findings, suppressed = analyze ~path:ds_path text in
  Alcotest.(check (list string)) "suppressed cleanly" [] (rule_ids findings);
  Alcotest.(check bool) "suppressions recorded" true (suppressed <> []);
  let f, reason = List.hd suppressed in
  Alcotest.(check string) "right rule" "F1" f.Finding.rule.id;
  Alcotest.(check string) "reason recorded" "fixture: reads run quiescently"
    reason

let test_pragma_slug_and_file_scope () =
  (* R5 is file-scope: a pragma anywhere in the file suppresses it, and the
     slug works as well as the id *)
  let findings, suppressed =
    analyze ~path:smr_path ~mli_exists:false
      "let x = 1\n\
       (* smr-lint: allow missing-mli — fixture: interface intentionally \
       open *)\n"
  in
  Alcotest.(check (list string)) "suppressed" [] (rule_ids findings);
  Alcotest.(check int) "one suppression" 1 (List.length suppressed)

let test_pragma_wrong_line_does_not_suppress () =
  (* line-scope rules need the pragma on the finding line or the line above;
     a far-away pragma suppresses nothing and is itself flagged as unused *)
  let text =
    "(* smr-lint: allow F1 — fixture: too far from the finding *)\n\
     let a = 0\n\
     let b = 0\n\
     let lookup t =\n\
    \  let h = Link.get t.head in\n\
    \  match Tagged.shape h with\n\
     | Tagged.Ptr -> Some (Tagged.node h).value\n\
     | Tagged.Null -> None\n"
  in
  let findings, _ = analyze ~path:ds_path text in
  let ids = rule_ids findings in
  Alcotest.(check bool) "F1 still fires" true (List.mem "F1" ids);
  Alcotest.(check bool) "pragma flagged unused" true (List.mem "P1" ids)

let test_unused_pragma_flagged () =
  let findings, _ =
    analyze ~path:smr_path
      "(* smr-lint: allow R2 — fixture: nothing here frees anything *)\n\
       let x = 1"
  in
  Alcotest.(check (list string)) "unused pragma is a finding" [ "P1" ]
    (rule_ids findings)

let test_reasonless_pragma_rejected () =
  (* no reason, and a reason-separator with nothing after it: both malformed *)
  List.iter
    (fun text ->
      let findings, _ = analyze ~path:smr_path text in
      Alcotest.(check (list string)) "malformed pragma is a finding" [ "P2" ]
        (rule_ids findings))
    [
      "(* smr-lint: allow R2 *)\nlet x = 1";
      "(* smr-lint: allow R2 -- *)\nlet x = 1";
      "(* smr-lint: disallow R2 -- backwards *)\nlet x = 1";
    ]

let test_marker_mention_is_not_a_pragma () =
  (* the marker inside a string or mid-comment prose must not parse as a
     pragma (and so must not be flagged as unused either) *)
  let findings, suppressed =
    analyze ~path:smr_path
      "let doc = \"write smr-lint: allow R1 -- like this\"\nlet x = doc"
  in
  Alcotest.(check (list string)) "no findings" [] (rule_ids findings);
  Alcotest.(check int) "no suppressions" 0 (List.length suppressed)

let test_parse_error_reported () =
  let findings, _ = analyze ~path:smr_path "let x = (" in
  Alcotest.(check (list string)) "parse failure surfaces as E0" [ "E0" ]
    (rule_ids findings)

(* --- Seeded-bug corpus matrix ------------------------------------------------- *)

let corpus_root = "test/lint_corpus"

let rec corpus_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then corpus_files path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

let test_corpus_matrix () =
  let files = corpus_files corpus_root in
  let bads = ref 0 and goods = ref 0 in
  let covered = Hashtbl.create 16 in
  List.iter
    (fun path ->
      let base = Filename.remove_extension (Filename.basename path) in
      let rule =
        String.uppercase_ascii (List.hd (String.split_on_char '_' base))
      in
      let findings, _ = Engine.analyze_file path in
      let ids = rule_ids findings in
      if Filename.check_suffix base "_bad" then begin
        incr bads;
        Hashtbl.replace covered rule ();
        Alcotest.(check bool) (path ^ ": seeded bug caught") true (ids <> []);
        List.iter
          (fun id ->
            Alcotest.(check string) (path ^ ": only " ^ rule ^ " fires") rule
              id)
          ids
      end
      else begin
        incr goods;
        Alcotest.(check (list string)) (path ^ ": good twin clean") [] ids
      end)
    files;
  Alcotest.(check bool) "at least 11 seeded bugs" true (!bads >= 11);
  Alcotest.(check bool) "at least 10 good twins" true (!goods >= 10);
  List.iter
    (fun r ->
      Alcotest.(check bool) ("corpus covers " ^ r) true (Hashtbl.mem covered r))
    [ "F1"; "F2"; "F3"; "F4"; "F5"; "F6"; "F7"; "R2"; "R3"; "R4"; "R5" ]

(* --- end to end over the real tree ---------------------------------------- *)

let test_repo_is_clean () =
  (* the burn-in contract: the analyzer over lib/ reports nothing, and every
     suppression carries a reason *)
  let report = Engine.run [ "lib" ] in
  List.iter
    (fun (f : Finding.t) -> Printf.eprintf "%s\n" (Finding.to_human f))
    report.Engine.findings;
  Alcotest.(check int) "no findings on lib/" 0
    (List.length report.Engine.findings);
  Alcotest.(check bool) "analyzed a real number of files" true
    (report.Engine.files > 40);
  List.iter
    (fun ((f : Finding.t), reason) ->
      Alcotest.(check bool)
        (Printf.sprintf "suppression at %s:%d has a reason" f.Finding.file
           f.Finding.line)
        true
        (String.length reason > 10))
    report.Engine.suppressed

let () =
  (* dune runs tests from test/_build-adjacent cwd; hop to the repo root so
     Engine.run [ "lib" ] sees the sources *)
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent
  in
  (match find_root (Sys.getcwd ()) with
  | Some root -> Sys.chdir root
  | None -> ());
  Alcotest.run "analysis"
    [
      ( "v1 rules",
        [
          Alcotest.test_case "R2 invalidate-before-free" `Quick test_r2;
          Alcotest.test_case "R3 shared-mutable-field" `Quick test_r3;
          Alcotest.test_case "R4 unguarded-trace-alloc" `Quick test_r4;
          Alcotest.test_case "R5 missing-mli" `Quick test_r5;
          Alcotest.test_case "parse error reported" `Quick
            test_parse_error_reported;
        ] );
      ( "flow rules",
        [
          Alcotest.test_case "F1 basics" `Quick test_f1_basics;
          Alcotest.test_case "F1 must-dominate join" `Quick test_f1_join;
          Alcotest.test_case "F1 CFG corners (while/try)" `Quick
            test_f1_cfg_corners;
          Alcotest.test_case "F1 interprocedural" `Quick
            test_f1_interprocedural;
          Alcotest.test_case "F2 protected-escape" `Quick test_f2;
          Alcotest.test_case "F3 retire discipline" `Quick test_f3;
          Alcotest.test_case "F4 collector-handoff" `Quick test_f4;
          Alcotest.test_case "F5 crit-hygiene" `Quick test_f5;
          Alcotest.test_case "F6 counter-read-order" `Quick test_f6;
          Alcotest.test_case "F7 quiescent-mixing" `Quick test_f7;
        ] );
      ( "engine internals",
        [
          Alcotest.test_case "lattice join/widen laws" `Quick
            test_lattice_laws;
          Alcotest.test_case "fact join laws" `Quick test_fact_laws;
          Alcotest.test_case "mutual recursion fixpoint" `Quick
            test_mutual_fixpoint;
          Alcotest.test_case "mutual recursion behavior" `Quick
            test_mutual_behavior;
          Alcotest.test_case "sidecar JSON round trip" `Quick
            test_sidecar_roundtrip;
        ] );
      ( "output pins",
        [
          Alcotest.test_case "human mode byte-stable" `Quick
            test_human_pinned;
          Alcotest.test_case "JSON mode byte-stable" `Quick test_json_pinned;
          Alcotest.test_case "SARIF carries columns" `Quick
            test_sarif_columns;
        ] );
      ( "pragmas",
        [
          Alcotest.test_case "suppresses with reason" `Quick
            test_pragma_suppression;
          Alcotest.test_case "slug + file scope" `Quick
            test_pragma_slug_and_file_scope;
          Alcotest.test_case "wrong line does not suppress" `Quick
            test_pragma_wrong_line_does_not_suppress;
          Alcotest.test_case "unused pragma flagged" `Quick
            test_unused_pragma_flagged;
          Alcotest.test_case "reasonless pragma rejected" `Quick
            test_reasonless_pragma_rejected;
          Alcotest.test_case "marker mention is not a pragma" `Quick
            test_marker_mention_is_not_a_pragma;
        ] );
      ( "corpus",
        [ Alcotest.test_case "seeded-bug matrix" `Quick test_corpus_matrix ] );
      ( "burn-in",
        [ Alcotest.test_case "repo lints clean" `Quick test_repo_is_clean ] );
    ]
