(* The flow rules F2–F7 (DESIGN.md §15): build the file's CFGs, iterate
   build+summarize until the per-function summaries reach fixpoint, then
   run a Neutral-seeded error pass per function and turn bad replay
   observations into findings.

   Exemptions:
   - frozen regions: the lexical bodies of try_unlink's ~frontier /
     ~do_unlink / ~invalidate arguments run under the scheme's own unlink
     contract, so deref/retire checks are off there — and off in any helper
     whose every call site is frozen (the collect_chain pattern), computed
     as a call-graph fixpoint;
   - retirement does not revoke the retiring thread's own validated
     protection (handled in the transfer, solver.ml). *)

open Parsetree

type checks = {
  c_escape : bool;  (** F2, lib/ds *)
  c_retire : bool;  (** F3, lib/ds + scheme code *)
  c_handoff : bool;  (** F4, scheme code *)
  c_crit : bool;  (** F5, lib + bin *)
  c_counter : bool;  (** F6, lib + bin *)
  c_quiescent : bool;  (** F7, lib/ds *)
}

let line_col (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol + 1)

(* --- Summary fixpoint ------------------------------------------------------- *)

let max_iterations = 8

(* Build the file's CFGs and iterate summarization to fixpoint. Rebuilding
   per iteration is deliberate: the arity of a call's return slots depends
   on the callee's previous summary, so the graph itself converges with the
   summaries. Returns the converged CFG file and the summary array. *)
let converge ~ext ast =
  let prev = ref [||] in
  let lookup_prev = function
    | Cfg.Local fid ->
        if fid < Array.length !prev then Some !prev.(fid) else None
    | Cfg.Ext s -> Some s
  in
  let cfile = ref (Cfg.build_file ~ext ~summaries:(fun fid -> lookup_prev (Cfg.Local fid)) ast) in
  let stable = ref false in
  let iters = ref 0 in
  while (not !stable) && !iters < max_iterations do
    incr iters;
    let funcs = Cfg.funcs_array !cfile in
    (* Gauss–Seidel sweep: a function's callers (defined after it in fid
       order) see the summary recomputed THIS iteration. With the Jacobi
       snapshot, a first-iteration weak value (a helper summarized before
       its callee's validation effect was known) lodges itself in a
       self-recursive ret-site join — [W = join (Validated, W)] keeps
       [W = Raw] alive forever — because the recursive contribution never
       restarts from the join identity. *)
    let n = Array.length funcs in
    let fresh : Summary.fn option array = Array.make n None in
    let lookup_now = function
      | Cfg.Local fid ->
          if fid < n && fresh.(fid) <> None then fresh.(fid)
          else lookup_prev (Cfg.Local fid)
      | Cfg.Ext s -> Some s
    in
    Array.iteri
      (fun i fn -> fresh.(i) <- Some (Solver.summarize ~lookup:lookup_now fn))
      funcs;
    let next =
      Array.map (function Some s -> s | None -> assert false) fresh
    in
    stable :=
      Array.length next = Array.length !prev
      && Array.for_all2 Summary.equal next !prev;
    prev := next;
    if not !stable then
      cfile :=
        Cfg.build_file ~ext
          ~summaries:(fun fid -> lookup_prev (Cfg.Local fid))
          ast
  done;
  (* Phase 2: the loop above converges the STRUCTURE (ret-slot arities and
     Pass passthrough, both state-independent), but its state values can
     carry first-iteration artifacts: while the CFG's slot shapes lag the
     summaries, a recursive ret site pads with a transiently weak whole
     state, and [W = join (Validated, W)] then keeps W = Raw alive forever.
     With the CFG now fixed, recompute the values from scratch: a
     not-yet-computed local resolves to Neutral (the join identity among
     reachable states), so each sweep only adds genuine information. *)
  let funcs = Cfg.funcs_array !cfile in
  let n = Array.length funcs in
  let final : Summary.fn option array = Array.make n None in
  let stable = ref false in
  let iters = ref 0 in
  while (not !stable) && !iters < max_iterations do
    incr iters;
    let before = Array.copy final in
    let lookup = function
      | Cfg.Local fid -> if fid < n then final.(fid) else None
      | Cfg.Ext s -> Some s
    in
    Array.iteri
      (fun i fn -> final.(i) <- Some (Solver.summarize ~lookup fn))
      funcs;
    stable :=
      Array.for_all2
        (fun a b ->
          match (a, b) with Some a, Some b -> Summary.equal a b | _ -> false)
        final before
  done;
  let final =
    Array.map (function Some s -> s | None -> assert false) final
  in
  (!cfile, final)

(* --- Frozen-exemption fixpoint ---------------------------------------------- *)

let frozen_exempt (cfile : Cfg.file) nfuncs =
  let sites = Array.make nfuncs [] in
  let succs = Array.make nfuncs [] in
  List.iter
    (fun (s : Cfg.site) ->
      if s.st_callee < nfuncs then begin
        sites.(s.st_callee) <- s :: sites.(s.st_callee);
        if s.st_caller < nfuncs then
          succs.(s.st_caller) <- s.st_callee :: succs.(s.st_caller)
      end)
    cfile.Cfg.sites;
  (* Exemption must be grounded: a function is exempt only when every way
     into its recursion component from the outside is a frozen site or an
     exempt caller. Working per strongly-connected component makes the
     recursion itself irrelevant — a recursive helper whose only external
     entries are frozen (collect_chain's walk) stays exempt because its
     self-site lies inside the component, while a top-level mutually
     recursive pair with no frozen entry has an entry-less component and
     can never vouch for itself (a per-function greatest fixpoint let such
     a cycle keep itself exempt and silenced every finding in it). *)
  let index = Array.make nfuncs (-1) in
  let low = Array.make nfuncs 0 in
  let on = Array.make nfuncs false in
  let stack = ref [] in
  let comp = Array.make nfuncs (-1) in
  let ncomp = ref 0 in
  let ctr = ref 0 in
  let rec strong v =
    index.(v) <- !ctr;
    low.(v) <- !ctr;
    incr ctr;
    stack := v :: !stack;
    on.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          if low.(w) < low.(v) then low.(v) <- low.(w)
        end
        else if on.(w) && index.(w) < low.(v) then low.(v) <- index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      let c = !ncomp in
      incr ncomp;
      let rec pop () =
        match !stack with
        | w :: rest ->
            stack := rest;
            on.(w) <- false;
            comp.(w) <- c;
            if w <> v then pop ()
        | [] -> ()
      in
      pop ()
    end
  in
  for v = 0 to nfuncs - 1 do
    if index.(v) < 0 then strong v
  done;
  (* entry sites: calls into a component from outside it *)
  let entries = Array.make (max 1 !ncomp) [] in
  Array.iteri
    (fun callee ss ->
      List.iter
        (fun (s : Cfg.site) ->
          if s.st_caller >= nfuncs || comp.(s.st_caller) <> comp.(callee) then
            entries.(comp.(callee)) <- s :: entries.(comp.(callee)))
        ss)
    sites;
  let cex = Array.map (fun e -> e <> []) entries in
  let changed = ref true in
  while !changed do
    changed := false;
    for c = 0 to !ncomp - 1 do
      if
        cex.(c)
        && not
             (List.for_all
                (fun (s : Cfg.site) ->
                  s.st_frozen
                  || (s.st_caller < nfuncs && cex.(comp.(s.st_caller))))
                entries.(c))
      then begin
        cex.(c) <- false;
        changed := true
      end
    done
  done;
  Array.init nfuncs (fun f -> cex.(comp.(f)))

(* --- The error pass ---------------------------------------------------------- *)

let check_file ~file ~checks ~ext ast =
  let cfile, summaries = converge ~ext ast in
  let funcs = Cfg.funcs_array cfile in
  let exempt = frozen_exempt cfile (Array.length funcs) in
  let lookup = function
    | Cfg.Local fid ->
        if fid < Array.length summaries then Some summaries.(fid) else None
    | Cfg.Ext s -> Some s
  in
  let seen = Hashtbl.create 32 in
  let findings = ref [] in
  let report rule loc msg =
    let line, col = line_col loc in
    if not (Hashtbl.mem seen (rule.Finding.id, line, col)) then begin
      Hashtbl.add seen (rule.Finding.id, line, col) ();
      findings := Finding.make rule ~file ~line msg :: !findings
    end
  in
  Array.iteri
    (fun fid fn ->
      let fname = fn.Cfg.fn_name in
      let ins = Solver.solve ~lookup fn ~seed:Lattice.Neutral in
      let nodes = Cfg.nodes_of fn in
      (* F7 is per-function and survives even in frozen helpers *)
      if checks.c_quiescent && fn.Cfg.fn_sync then
        List.iter
          (fun loc ->
            report Finding.f7 loc
              (Printf.sprintf
                 "`%s` performs a declared quiescent read but also \
                  synchronizes (protect/CAS/retire/crit) — the \
                  no-concurrent-writers contract of Link.get_quiescent \
                  cannot hold; use a protected traversal"
                 fname))
          fn.Cfg.fn_quiescent;
      let fn_exempt = exempt.(fid) in
      Array.iteri
        (fun id n ->
          match Lattice.copy ins.(id) with
          | None -> ()
          | Some facts ->
              let quiet = fn_exempt || n.Cfg.n_frozen in
              let obs =
                {
                  Solver.ob_deref =
                    (fun _ f hint loc ->
                      if not quiet then
                        match f.Lattice.st with
                        | Lattice.Retired when checks.c_retire ->
                            report Finding.f3 loc
                              (Printf.sprintf
                                 "`%s` dereferences `%s` after it was \
                                  retired on some path"
                                 fname hint)
                        | Lattice.Invalidated when checks.c_retire ->
                            report Finding.f3 loc
                              (Printf.sprintf
                                 "`%s` dereferences `%s` after it was \
                                  invalidated on some path"
                                 fname hint)
                        | Lattice.Handed_off when checks.c_handoff ->
                            report Finding.f4 loc
                              (Printf.sprintf
                                 "`%s` uses a retire bag after a successful \
                                  Collector.offer: the ring owns it now — \
                                  take a fresh bag before touching `%s`"
                                 fname hint)
                        | _ -> ());
                  ob_use =
                    (fun _ f loc ->
                      if (not quiet) && checks.c_handoff then
                        match f.Lattice.st with
                        | Lattice.Handed_off ->
                            report Finding.f4 loc
                              (Printf.sprintf
                                 "`%s` passes a handed-off retire bag to \
                                  another operation after Collector.offer \
                                  succeeded"
                                 fname)
                        | _ -> ());
                  ob_retire =
                    (fun _ f loc ->
                      if (not quiet) && checks.c_retire then
                        if f.Lattice.published then
                          report Finding.f3 loc
                            (Printf.sprintf
                               "`%s` retires a node that was published \
                                (CASed/stored into shared state) on some \
                                path: only unlinked nodes may be retired"
                               fname)
                        else if f.Lattice.st = Lattice.Retired then
                          report Finding.f3 loc
                            (Printf.sprintf
                               "`%s` retires a node that is already retired \
                                on some path" fname));
                  ob_ret =
                    (fun _ f loc ->
                      if (not quiet) && checks.c_escape then
                        match f.Lattice.st with
                        | Lattice.Protected ->
                            report Finding.f2 loc
                              (Printf.sprintf
                                 "`%s` returns a merely-Protected pointer: \
                                  the protection window ends with this \
                                  function, so validation must happen \
                                  before the value escapes"
                                 fname)
                        | _ -> ());
                  ob_store =
                    (fun _ f loc ->
                      if (not quiet) && checks.c_escape then
                        match f.Lattice.st with
                        | Lattice.Protected ->
                            report Finding.f2 loc
                              (Printf.sprintf
                                 "`%s` stores a merely-Protected pointer \
                                  into a mutable field, letting it outlive \
                                  its protection window unvalidated"
                                 fname)
                        | _ -> ());
                }
              in
              List.iter
                (fun ev ->
                  (if checks.c_crit && n.Cfg.n_crit then
                     match ev with
                     | Cfg.Blocking (op, loc) ->
                         report Finding.f5 loc
                           (Printf.sprintf
                              "`%s` calls blocking `%s` inside a critical \
                               section: a stalled domain pins the epoch and \
                               stops every domain's reclamation"
                              fname op)
                     | Cfg.Call { callee; loc; _ } -> (
                         match lookup callee with
                         | Some (s : Summary.fn) -> (
                             match s.Summary.s_blocks with
                             | Some op ->
                                 report Finding.f5 loc
                                   (Printf.sprintf
                                      "`%s` calls `%s`, which reaches \
                                       blocking `%s`, inside a critical \
                                       section"
                                      fname s.Summary.s_name op)
                             | None -> ())
                         | None -> ())
                     | _ -> ());
                  Solver.apply ~lookup ~obs facts ev)
                (List.rev n.Cfg.n_evs))
        nodes)
    funcs;
  let exports =
    Array.to_list funcs
    |> List.filter_map (fun fn ->
           if fn.Cfg.fn_toplevel then
             Some (Solver.summarize ~lookup fn)
           else None)
  in
  (List.rev !findings, exports)

(* --- F6: counter read order (syntactic) -------------------------------------- *)

(* The PR 2 stats bug shape: both operands of one subtraction sweep
   monotonic counters, so OCaml's right-to-left operand evaluation sweeps
   the decreasing side first and a preempted reader overshoots. The fix —
   and the good twin — binds the increasing side with a [let] first. *)

let counter_readers =
  [ "retired_total"; "allocated"; "freed"; "sum"; "unreclaimed"; "live" ]

let reads_counter e =
  Rules.contains_app (fun _ last -> List.mem last counter_readers) e

let f6_check ~file ast =
  let hits = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, [ (_, a); (_, b) ])
            when Rules.app_head_name f = Some (None, "-")
                 && reads_counter a && reads_counter b ->
              let line, _ = line_col e.pexp_loc in
              hits :=
                Finding.make Finding.f6 ~file ~line
                  "both operands of this subtraction sweep monotonic \
                   counters: OCaml evaluates operands right-to-left, so the \
                   decreasing side is swept first and a reader preempted \
                   between sweeps overshoots by the backlog; bind the \
                   increasing side with a `let` before subtracting"
                :: !hits
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  List.iter (it.structure_item it) ast;
  List.rev !hits

(* --- Entry point -------------------------------------------------------------- *)

let run ~file ~checks ~ext ast =
  let flow, exports =
    if
      checks.c_escape || checks.c_retire || checks.c_handoff || checks.c_crit
      || checks.c_quiescent
    then check_file ~file ~checks ~ext ast
    else ([], [])
  in
  let counters = if checks.c_counter then f6_check ~file ast else [] in
  (flow @ counters, exports)
