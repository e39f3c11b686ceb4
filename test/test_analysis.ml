(* Tests for the smr_lint static analyzer (lib/analysis), v2 layering:
   the syntactic rules (R2-R5, the fast pre-pass), the flow rules F2-F7
   produced by the dataflow engine, the engine internals (lattice laws,
   CFG corner cases, summary fixpoint on mutual recursion), the pinned
   human output, the pragma machinery, and the seeded-bug corpus matrix
   over test/lint_corpus/. Fixtures are parsed, never typed, so they only
   need to be syntactically valid OCaml. *)

module Engine = Analysis.Engine
module Finding = Analysis.Finding
module Lattice = Analysis.Lattice
module Summary = Analysis.Summary
module Rules_flow = Analysis.Rules_flow

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

(* --- F2: protected escape ------------------------------------------------- *)

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

(* Must-dominate at a join: the node is retired on one branch only, so the
   read below the merge may touch a freed node; the twin whose retiring
   branch leaves by a raise never reaches the merge retired. *)
let test_f3_join () =
  check_fires "retired on one branch" "F3" ~path:ds_path
    {|
let drop l cur b =
  if b then S.retire l.handle cur;
  cur.value
|};
  check_silent "retiring branch raises" ~path:ds_path
    {|
let drop l cur b =
  if b then begin
    S.retire l.handle cur;
    raise Exit
  end;
  cur.value
|}

(* CFG corner cases: the read lives in a while-loop condition reached
   retired round the back edge, in a try handler reached from a retiring
   body, and after a retire-or-raise guarded by a local handler. *)
let test_f3_cfg_corners () =
  check_fires "read in while condition" "F3" ~path:ds_path
    {|
let spin l cur =
  while cur.key = 0 do
    S.retire l.handle cur
  done
|};
  check_fires "read in exception handler" "F3" ~path:ds_path
    {|
let risky l cur =
  try
    S.retire l.handle cur;
    find cur
  with Not_found -> cur.key
|};
  check_silent "retire-or-raise with local handler" ~path:ds_path
    {|
let settle l cur =
  try
    if cur.key = 0 then begin
      S.retire l.handle cur;
      raise Restart
    end;
    Some cur.key
  with Restart -> None
|}

(* Interprocedural summaries: the retire hides inside a helper, the caller
   reads the node after the call. *)
let test_f3_interprocedural () =
  check_fires "read after a retiring helper" "F3" ~path:ds_path
    {|
let finish l n = S.retire l.handle n

let drop l cur =
  finish l cur;
  cur.value
|};
  check_silent "read before a retiring helper" ~path:ds_path
    {|
let finish l n = S.retire l.handle n

let drop l cur =
  let v = cur.value in
  finish l cur;
  v
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

(* [walk] never retires anything itself, but one of its branches hands
   its node to [step], which does: the cycle's summaries must carry the
   retirement back into [walk]. *)
let mutual_src =
  {|
let rec walk l cur =
  if cur.key = 0 then step l cur else walk l cur.next

and step l cur =
  S.retire l.handle cur;
  if l.again then walk l l.head
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
  Alcotest.(check int) "step arity" 2 step.Summary.s_arity;
  Alcotest.(check int) "walk arity" 2 walk.Summary.s_arity;
  Alcotest.(check bool) "step retires cur" true step.Summary.s_retires.(1);
  Alcotest.(check bool) "walk retires nothing itself" false
    walk.Summary.s_retires.(1);
  Alcotest.check st "walk's cur leaves retired through step"
    Lattice.Retired walk.Summary.s_param_exit.(1);
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
  (* the twin reads nothing after the cycle retires it; reading the node
     after handing it into the retiring half of the cycle is flagged *)
  check_silent "mutual traversal" ~path:ds_path mutual_src;
  check_fires "retired arg into recursive cycle" "F3" ~path:ds_path
    {|
let rec walk l cur =
  if cur.key = 0 then begin
    step l cur;
    cur.value
  end
  else walk l cur.next

and step l cur =
  S.retire l.handle cur;
  if l.again then ignore (walk l l.head)
|}

(* --- Pinned human output ------------------------------------------------------ *)

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

(* --- pragmas ----------------------------------------------------------------- *)

let test_pragma_suppression () =
  let text =
    {|
let drop l cur =
  S.retire l.handle cur;
  (* smr-lint: allow F3 — fixture: the caller still holds cur's slot *)
  cur.value
|}
  in
  let findings, suppressed = analyze ~path:ds_path text in
  Alcotest.(check (list string)) "suppressed cleanly" [] (rule_ids findings);
  Alcotest.(check bool) "suppressions recorded" true (suppressed <> []);
  let f, reason = List.hd suppressed in
  Alcotest.(check string) "right rule" "F3" f.Finding.rule.id;
  Alcotest.(check string) "reason recorded" "fixture: the caller still holds cur's slot"
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
    "(* smr-lint: allow F3 — fixture: too far from the finding *)\n\
     let a = 0\n\
     let b = 0\n\
     let drop l cur =\n\
    \  S.retire l.handle cur;\n\
    \  cur.value\n"
  in
  let findings, _ = analyze ~path:ds_path text in
  let ids = rule_ids findings in
  Alcotest.(check bool) "F3 still fires" true (List.mem "F3" ids);
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
    [ "F2"; "F3"; "F4"; "F5"; "F6"; "F7"; "R2"; "R3"; "R4"; "R5" ]

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
          Alcotest.test_case "F2 protected-escape" `Quick test_f2;
          Alcotest.test_case "F3 retire discipline" `Quick test_f3;
          Alcotest.test_case "F3 must-dominate join" `Quick test_f3_join;
          Alcotest.test_case "F3 CFG corners (while/try)" `Quick
            test_f3_cfg_corners;
          Alcotest.test_case "F3 interprocedural" `Quick
            test_f3_interprocedural;
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
        ] );
      ( "output pins",
        [
          Alcotest.test_case "human mode byte-stable" `Quick
            test_human_pinned;
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
