(* The rule set. Every rule is a cheap syntactic under-approximation of an
   SMR obligation (see DESIGN.md §10): it inspects the Parsetree only — no
   typing, no cross-file resolution — so it can run on every build with zero
   schedules executed. False negatives are accepted by design; false
   positives are suppressed with an auditable pragma. *)

open Parsetree

(* --- Longident / expression helpers -------------------------------------- *)

let rec lident_parts = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> lident_parts p @ [ s ]
  | Longident.Lapply (_, p) -> lident_parts p

(* Last one / two components of the applied function's path, if the
   application head is an identifier or a record-field projection (method
   style [h.invalidate_all ()]). *)
let app_head_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match List.rev (lident_parts txt) with
      | last :: qual :: _ -> Some (Some qual, last)
      | [ last ] -> Some (None, last)
      | [] -> None)
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (lident_parts txt) with
      | last :: _ -> Some (None, last)
      | [] -> None)
  | _ -> None

let line_of_loc (loc : Location.t) = loc.loc_start.pos_lnum
let cnum_of_loc (loc : Location.t) = loc.loc_start.pos_cnum

(* Iterate an expression with [f] called on every sub-expression. *)
let iter_expr f e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e

(* All application sites within [e] whose head matches [pred qual last]. *)
let app_sites pred e =
  let acc = ref [] in
  iter_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply (f, _) -> (
          match app_head_name f with
          | Some (qual, last) when pred qual last -> acc := e :: !acc
          | _ -> ())
      | _ -> ())
    e;
  List.rev !acc

let contains_app pred e = app_sites pred e <> []

(* --- Top-level function enumeration -------------------------------------- *)

(* Top-level [let]-bound functions of a file, recursing into (possibly
   functor) module bodies: the granularity at which R2 and the flow rules
   reason. Nested
   [let ... in] helpers are part of their enclosing top-level binding. *)
type func = { f_name : string; f_body : expression; f_loc : Location.t }

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) -> is_function e
  | _ -> false

let rec funcs_of_module_expr me acc =
  match me.pmod_desc with
  | Pmod_structure str -> funcs_of_structure str acc
  | Pmod_functor (_, body) -> funcs_of_module_expr body acc
  | Pmod_constraint (me, _) -> funcs_of_module_expr me acc
  | _ -> acc

and funcs_of_structure str acc =
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left
            (fun acc vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } when is_function vb.pvb_expr ->
                  { f_name = txt; f_body = vb.pvb_expr; f_loc = vb.pvb_loc }
                  :: acc
              | _ -> acc)
            acc vbs
      | Pstr_module mb -> funcs_of_module_expr mb.pmb_expr acc
      | Pstr_recmodule mbs ->
          List.fold_left (fun acc mb -> funcs_of_module_expr mb.pmb_expr acc) acc mbs
      | _ -> acc)
    acc str

let funcs_of_file ast = List.rev (funcs_of_structure ast [])

(* --- Pattern helpers -------------------------------------------------- *)

let pattern_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it p;
  !acc

(* --- R2: invalidate-before-free ------------------------------------------ *)

(* In scheme code, within one top-level function that both invalidates and
   frees, every free-family call site must come after the invalidation call
   sites it is ordered with: a free that syntactically precedes an
   invalidation inverts HP++'s DoInvalidation-before-Reclaim order (paper
   Algorithm 3; the trace checker's invalidate-before-free rule is the
   dynamic twin of this). *)

let free_names = [ "free_mark"; "free_mark_cascade"; "reclaim"; "collect" ]
let invalidate_names = [ "do_invalidation"; "invalidate_all"; "invalidate"; "mark_invalid" ]

let r2_check ~file ast =
  let funcs = funcs_of_file ast in
  List.concat_map
    (fun f ->
      let frees = app_sites (fun _ l -> List.mem l free_names) f.f_body in
      let invs = app_sites (fun _ l -> List.mem l invalidate_names) f.f_body in
      match (frees, invs) with
      | [], _ | _, [] -> []
      | _ ->
          let last_inv =
            List.fold_left
              (fun acc e -> max acc (cnum_of_loc e.pexp_loc))
              min_int invs
          in
          List.filter_map
            (fun e ->
              if cnum_of_loc e.pexp_loc < last_inv then
                Some
                  (Finding.make Finding.r2 ~file
                     ~line:(line_of_loc e.pexp_loc)
                     (Printf.sprintf
                        "`%s` reaches a free/reclaim call before the batch \
                         invalidation later in the same function; \
                         DoInvalidation must precede any reclamation of the \
                         unlinked batch (paper Algorithm 3)"
                        f.f_name))
              else None)
            frees)
    funcs

(* --- R3: shared-mutable-field --------------------------------------------- *)

(* A record type is considered *shared across domains* when it directly
   carries an [Atomic.t] field, or is reachable from such a type through
   field types (list/array/option/Atomic containers included — any mention
   of the type constructor counts). Plain [mutable] fields in a shared type
   are unsynchronized writes under the OCaml memory model: racy reads are
   allowed to return outdated values and the race itself is UB-free but
   still a correctness bug. Per-handle types (never reachable from shared
   state) are exempt — that is the handle/shared split every scheme in this
   tree follows. *)

type record_decl = {
  r_name : string;
  r_fields : (string * bool * core_type * Location.t) list;
      (** name, mutable, type, loc *)
}

let rec core_type_constrs ct acc =
  match ct.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, args) ->
      List.fold_left (fun acc a -> core_type_constrs a acc)
        (lident_parts txt :: acc) args
  | Ptyp_arrow (_, a, b) -> core_type_constrs b (core_type_constrs a acc)
  | Ptyp_tuple ts -> List.fold_left (fun acc a -> core_type_constrs a acc) acc ts
  | Ptyp_poly (_, t) -> core_type_constrs t acc
  | Ptyp_alias (t, _) -> core_type_constrs t acc
  | _ -> acc

let rec records_of_module_expr me acc =
  match me.pmod_desc with
  | Pmod_structure str -> records_of_structure str acc
  | Pmod_functor (_, body) -> records_of_module_expr body acc
  | Pmod_constraint (me, _) -> records_of_module_expr me acc
  | _ -> acc

and records_of_structure str acc =
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.fold_left
            (fun acc d ->
              match d.ptype_kind with
              | Ptype_record labels ->
                  {
                    r_name = d.ptype_name.txt;
                    r_fields =
                      List.map
                        (fun l ->
                          ( l.pld_name.txt,
                            l.pld_mutable = Asttypes.Mutable,
                            l.pld_type,
                            l.pld_loc ))
                        labels;
                  }
                  :: acc
              | _ -> acc)
            acc decls
      | Pstr_module mb -> records_of_module_expr mb.pmb_expr acc
      | Pstr_recmodule mbs ->
          List.fold_left (fun acc mb -> records_of_module_expr mb.pmb_expr acc) acc mbs
      | _ -> acc)
    acc str

let type_is_atomic parts =
  match List.rev parts with
  | "t" :: "Atomic" :: _ -> true
  | _ -> false

let r3_check ~file ast =
  let records = List.rev (records_of_structure ast []) in
  let field_constrs (_, _, ct, _) = core_type_constrs ct [] in
  let has_atomic_field r =
    List.exists (fun f -> List.exists type_is_atomic (field_constrs f)) r.r_fields
  in
  let shared = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace shared r.r_name (has_atomic_field r)) records;
  let mentions r name =
    List.exists
      (fun f -> List.exists (fun parts -> parts = [ name ]) (field_constrs f))
      r.r_fields
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        if Hashtbl.find shared r.r_name then
          List.iter
            (fun r' ->
              if (not (Hashtbl.find shared r'.r_name)) && mentions r r'.r_name
              then begin
                Hashtbl.replace shared r'.r_name true;
                changed := true
              end)
            records)
      records
  done;
  List.concat_map
    (fun r ->
      if not (Hashtbl.find shared r.r_name) then []
      else
        List.filter_map
          (fun (fname, mut, _, loc) ->
            if mut then
              Some
                (Finding.make Finding.r3 ~file ~line:(line_of_loc loc)
                   (Printf.sprintf
                      "field `%s` of type `%s` is plain mutable but the type \
                       is shared across domains (directly holds or is \
                       reachable from Atomic state): concurrent access is a \
                       data race under the OCaml memory model — make it \
                       Atomic.t or move it into per-handle state"
                      fname r.r_name))
            else None)
          r.r_fields)
    records

(* --- R4: unguarded-trace-alloc -------------------------------------------- *)

(* PR 3's budget: [Trace.emit] must cost one load and a branch when tracing
   is disabled, and allocate nothing either way. An emit site inside an
   [if Trace.enabled () then ...] guard may compute what it likes; an
   unguarded site must pass arguments that are syntactically non-allocating
   (constants, variables, field reads, integer arithmetic, and a short
   whitelist of known scalar accessors). *)

let nonalloc_ops =
  [ "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "~-"; "="; "<>"; "<"; ">"; "<="; ">="; "&&"; "||"; "not" ]

let nonalloc_accessors =
  [ "uid"; "uid_of_hdr"; "tag"; "length"; "scan_size"; "get"; "op_index";
    "kind_code"; "of_node" ]

let is_enabled_call qual last = last = "enabled" && qual = Some "Trace"

let cond_mentions_enabled e = contains_app is_enabled_call e

let is_not_of_enabled e =
  match e.pexp_desc with
  | Pexp_apply (f, [ (_, arg) ]) -> (
      match app_head_name f with
      | Some (_, "not") -> cond_mentions_enabled arg
      | _ -> false)
  | _ -> false

(* Character ranges of expressions that only execute with tracing enabled. *)
let guarded_ranges ast =
  let ranges = ref [] in
  let add (e : expression) =
    ranges := (cnum_of_loc e.pexp_loc, e.pexp_loc.loc_end.pos_cnum) :: !ranges
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ifthenelse (cond, then_, else_) ->
              if is_not_of_enabled cond then
                Option.iter add else_
              else if cond_mentions_enabled cond then add then_
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  List.iter (it.structure_item it) ast;
  !ranges

let rec arg_is_simple e =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_ident _ -> true
  | Pexp_field (e, _) -> arg_is_simple e
  | Pexp_construct (_, None) -> true
  | Pexp_constraint (e, _) -> arg_is_simple e
  | Pexp_ifthenelse (c, t, Some e) ->
      arg_is_simple c && arg_is_simple t && arg_is_simple e
  | Pexp_ifthenelse (c, t, None) -> arg_is_simple c && arg_is_simple t
  | Pexp_match (s, cases) ->
      arg_is_simple s
      && List.for_all
           (fun c ->
             Option.fold ~none:true ~some:arg_is_simple c.pc_guard
             && arg_is_simple c.pc_rhs)
           cases
  | Pexp_apply (f, args) -> (
      match app_head_name f with
      | Some (_, n) when List.mem n nonalloc_ops || List.mem n nonalloc_accessors
        ->
          List.for_all (fun (_, a) -> arg_is_simple a) args
      | _ -> false)
  | _ -> false

let is_emit qual last = (last = "emit" || last = "emit_at") && qual = Some "Trace"

let r4_check ~file ast =
  let ranges = guarded_ranges ast in
  let in_guard cnum = List.exists (fun (a, b) -> cnum >= a && cnum <= b) ranges in
  let sites = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              match app_head_name f with
              | Some (qual, last) when is_emit qual last ->
                  sites := (e, args) :: !sites
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  List.iter (it.structure_item it) ast;
  List.filter_map
    (fun ((e : expression), args) ->
      if in_guard (cnum_of_loc e.pexp_loc) then None
      else if List.for_all (fun (_, a) -> arg_is_simple a) args then None
      else
        Some
          (Finding.make Finding.r4 ~file ~line:(line_of_loc e.pexp_loc)
             "Trace.emit argument may allocate (or run arbitrary code) \
              outside an `if Trace.enabled ()` guard, breaking the tracer's \
              zero-cost-when-disabled budget: guard the call or reduce the \
              argument to a field read / whitelisted scalar accessor"))
    (List.rev !sites)

(* --- R5: missing-mli ------------------------------------------------------- *)

let r5_check ~file ~mli_exists () =
  if mli_exists then []
  else
    [
      Finding.make Finding.r5 ~file ~line:1
        "module has no .mli: every helper, internal type and representation \
         detail is exported; add an interface (or pragma-suppress with a \
         reason why full exposure is intended)";
    ]
