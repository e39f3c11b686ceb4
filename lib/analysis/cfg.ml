(* Control-flow graphs over Parsetree expressions (DESIGN.md §15).

   One CFG per function (top-level or nested helper). Nodes carry a list of
   abstract *events* — the protection-relevant effects of the code in build
   order — plus successor edges; the solver (solver.ml) propagates
   per-object lattice facts across the edges and the flow rules
   (rules_flow.ml) replay the events against the solved states.

   Objects are allocated at build time: every raw shared read
   ([Link.get]), record construction, unknown-call result and parameter
   gets its own object id; variable bindings map names to object *sets*
   lexically, which is sound because OCaml bindings are immutable — only
   the objects' states are flow-dependent. Field projections get derived
   objects keyed by (base objects, field name), so a collector bag
   ([h.retireds]) is tracked separately from its handle.

   Interprocedural flow is by summary, not inlining: a call to an in-scope
   function emits a [Call] event that the solver interprets with the
   callee's current summary; the file driver (rules_flow.ml) rebuilds and
   re-summarizes to fixpoint, which is how recursive helpers converge. The
   builtin contracts of the [Smr_intf] automaton (protect / validate /
   retire / crit / offer) are applied here, at build time, as branch
   refinements and state events — they always win over summaries. *)

open Parsetree
module SMap = Map.Make (String)

type objset = int list (* sorted, deduped *)

let oempty : objset = []
let osingle o = [ o ]
let ounion (a : objset) (b : objset) = List.sort_uniq compare (a @ b)
let ounions l = List.fold_left ounion oempty l

(* A value is an object set plus, when the expression is a tuple or a
   constructor application at top level, per-component object sets — the
   "slots" that keep destructured call results precise. *)
type value = { whole : objset; slots : objset array }

let vnone = { whole = oempty; slots = [||] }
let vof whole = { whole; slots = [||] }

let vjoin a b =
  {
    whole = ounion a.whole b.whole;
    slots =
      (if Array.length a.slots = Array.length b.slots then
         Array.init (Array.length a.slots) (fun i -> ounion a.slots.(i) b.slots.(i))
       else [||]);
  }

type callee = Local of int | Ext of Summary.fn

type ev =
  | Fresh of int * Lattice.state
  | Set_state of objset * Lattice.state
  | Protect of objset
      (** hazard-slot announce: Raw/Neutral rise to Protected, but an
          already-Validated object keeps its validation (re-announcing in a
          fresh guard does not revoke it) *)
  | Validate_protected  (** all Protected objects become Validated *)
  | Scheme_safe
      (** [needs_protection = false] branch: the scheme guards raw reads
          with its crit section, so every Raw/Protected object is safe *)
  | Demote_all  (** crit-exit / release: Protected and Validated drop to Raw *)
  | Publish of objset  (* stored into shared state as a CAS/set new-value *)
  | Retire of objset * Location.t
  | Deref of objset * string * Location.t  (** field access through objs *)
  | Use of objset * Location.t  (** passed to an unknown call *)
  | Ret of value * Location.t  (** function return site *)
  | Store of objset * Location.t  (** written into a mutable field *)
  | Blocking of string * Location.t
  | Call of {
      callee : callee;
      args : objset array;  (** per callee param position *)
      ret_whole : int;
      ret_slots : int array;
      loc : Location.t;
    }

type node = {
  n_id : int;
  mutable n_evs : ev list;  (** reversed during build *)
  mutable n_succs : int list;
  n_frozen : bool;  (** inside a try_unlink callback region *)
  n_crit : bool;  (** lexically inside a critical section *)
}

type func = {
  fn_id : int;
  fn_name : string;
  fn_loc : Location.t;
  fn_params : (string option * string list) list;
  fn_param_objs : int array;
  mutable fn_nodes : node list;  (** reverse build order *)
  mutable fn_nnodes : int;
  fn_entry : int;
  mutable fn_exit : int;
  mutable fn_nobjs : int;
  fn_derived : (objset * string, int) Hashtbl.t;
  mutable fn_quiescent : Location.t list;
  mutable fn_sync : bool;  (** CASes, retires, protects or enters crit *)
  mutable fn_crit : bool;  (** enters a critical section itself *)
  fn_toplevel : bool;
}

(* A call-graph edge, with whether the call site sits in a frozen region:
   drives the frozen-exemption fixpoint in rules_flow. *)
type site = { st_callee : int; st_caller : int; st_frozen : bool }

type file = {
  mutable fs : func list;  (** reverse registration order *)
  mutable nf : int;
  mutable sites : site list;
  ext : qual:string option -> string -> Summary.fn option;
  summaries : int -> Summary.fn option;  (** previous iteration, by fid *)
}

let funcs_array (f : file) = Array.of_list (List.rev f.fs)

let nodes_of (fn : func) =
  let a = Array.make fn.fn_nnodes (Obj.magic 0 : node) in
  List.iter (fun n -> a.(n.n_id) <- n) fn.fn_nodes;
  a

(* --- Build-time environment ---------------------------------------------- *)

(* What a let-bound variable holds when the binding was a protection-family
   call whose outcome is inspected later ([let ok = offer ... in if ok]):
   the refinement is applied where the boolean/outcome is branched on. *)
type pending =
  | P_offer of objset  (** Collector.offer result: true => Handed_off *)
  | P_valid  (** protection_valid result: true => Validate_protected *)

type env = {
  vars : objset SMap.t;
  funcs : int SMap.t;
  pend : pending SMap.t;
  tries : (objset * objset) SMap.t;
      (** [let r = try_protect ...] (or [protect_pessimistic]) results:
          r's objects and the expected argument's, both Validated where
          [not (Tagged.is_invalid r)]; rebinding the name drops the entry *)
  in_crit : bool;
  frozen : bool;
  handler : int option;  (** innermost exception-handler node *)
}

let env0 ~funcs =
  {
    vars = SMap.empty;
    funcs;
    pend = SMap.empty;
    tries = SMap.empty;
    in_crit = false;
    frozen = false;
    handler = None;
  }

type ctx = { file : file; fn : func; mutable cur : int }

(* --- Node/object plumbing ------------------------------------------------- *)

let new_node ctx env =
  let n =
    {
      n_id = ctx.fn.fn_nnodes;
      n_evs = [];
      n_succs = [];
      n_frozen = env.frozen;
      n_crit = env.in_crit;
    }
  in
  ctx.fn.fn_nnodes <- ctx.fn.fn_nnodes + 1;
  ctx.fn.fn_nodes <- n :: ctx.fn.fn_nodes;
  n.n_id

let node_by_id ctx id = List.find (fun n -> n.n_id = id) ctx.fn.fn_nodes
let link ctx a b = (node_by_id ctx a).n_succs <- b :: (node_by_id ctx a).n_succs
let emit ctx ev = (node_by_id ctx ctx.cur).n_evs <- ev :: (node_by_id ctx ctx.cur).n_evs

(* Step the cursor into a fresh node (straight-line continuation). *)
let advance ctx env =
  let n = new_node ctx env in
  link ctx ctx.cur n;
  ctx.cur <- n

let fresh_obj ctx =
  let o = ctx.fn.fn_nobjs in
  ctx.fn.fn_nobjs <- o + 1;
  o

let fresh_tracked ctx st =
  let o = fresh_obj ctx in
  emit ctx (Fresh (o, st));
  o

(* Derived object for a field projection; created (Neutral) at its first
   occurrence so the collector-bag discipline has an identity to track. *)
let derived ctx base field =
  match Hashtbl.find_opt ctx.fn.fn_derived (base, field) with
  | Some o -> o
  | None ->
      let o = fresh_tracked ctx Lattice.Neutral in
      Hashtbl.add ctx.fn.fn_derived (base, field) o;
      o

(* --- Names ---------------------------------------------------------------- *)

let head_name e = Rules.app_head_name e

let blocking_names =
  [
    ("Unix", "write"); ("Unix", "single_write"); ("Unix", "read");
    ("Unix", "send"); ("Unix", "recv"); ("Unix", "select");
    ("Unix", "connect"); ("Unix", "accept"); ("Unix", "sleepf");
    ("Unix", "sleep"); ("Fault", "await_stalled"); ("Domain", "join");
    ("Thread", "delay");
  ]

let is_blocking qual last =
  List.exists (fun (q, n) -> Some q = qual && n = last) blocking_names

(* Value-preserving wrappers: the result aliases the arguments.
   [Mem.of_node n] is [n]'s embedded header, and a node's header is the
   node itself: protecting or retiring it protects or retires [n], and
   taking it reads nothing; [Tagged.header r] is [r]'s target's header.
   [Tagged.node r] is [r]'s target (a clean [r] is that very node), so a
   field read through it dereferences [r]; [Tagged.shape r] stands for [r]
   as a match scrutinee, so its [Null] arm refines [r]. [Tagged.raw] and
   the escapes that make a [Tagged.safe] are the identity. *)
let is_transparent qual last =
  match (qual, last) with
  | Some "Mem", "of_node" -> true
  | ( Some "Tagged",
      ( "make" | "of_option" | "node" | "shape" | "untagged" | "set_bits"
      | "with_tag" | "header" | "raw" | "validated" | "owned" | "sentinel"
      | "quiescent" ) ) ->
      true
  | Some "Option", ("get" | "some" | "value") -> true
  | Some "Array", "get" -> true
  | None, "node_header" -> true
  | _ -> false

let higher_order_names =
  [ ("Option", "map"); ("Option", "iter"); ("Option", "bind");
    ("Option", "fold"); ("List", "iter"); ("List", "map"); ("List", "fold_left");
    ("List", "filter_map"); ("List", "concat_map"); ("List", "exists");
    ("List", "for_all"); ("Array", "iter"); ("Array", "map"); ("Array", "iteri") ]

let is_higher_order qual last =
  List.exists (fun (q, n) -> Some q = qual && n = last) higher_order_names

let invalidate_names = [ "mark_invalid"; "invalidate"; "invalidate_all"; "do_invalidation" ]
let retire_names = [ "retire"; "retire_mark"; "retire_with_children" ]

(* Positional params of a lambda chain, with labels; a trailing bare
   [function] contributes one anonymous parameter handled by the builder. *)
let rec params_of_lambda e =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, p, body) ->
      let name =
        match lbl with
        | Asttypes.Labelled s | Asttypes.Optional s -> Some s
        | Asttypes.Nolabel -> None
      in
      let rest, final = params_of_lambda body in
      ((name, Rules.pattern_vars p) :: rest, final)
  | Pexp_newtype (_, body) -> params_of_lambda body
  | Pexp_function _ -> ([ (None, []) ], e)
  | _ -> ([], e)

let rec is_lambda e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) -> is_lambda e
  | _ -> false

(* Align call arguments to callee parameter positions: labelled arguments
   match the parameter with that label; the rest fill positional holes in
   order. Surplus arguments (partial application the other way) are
   treated as unknown uses by the caller. *)
let align_args (params : (string option * string list) list) args =
  let n = List.length params in
  let out = Array.make n None in
  let positional = ref [] in
  List.iter
    (fun (lbl, a) ->
      match lbl with
      | Asttypes.Labelled s | Asttypes.Optional s -> (
          match
            List.mapi (fun i (pl, _) -> (i, pl)) params
            |> List.find_opt (fun (_, pl) -> pl = Some s)
          with
          | Some (i, _) when out.(i) = None -> out.(i) <- Some a
          | _ -> positional := a :: !positional)
      | Asttypes.Nolabel -> positional := a :: !positional)
    args;
  let rec fill i rem =
    if i < n then
      match rem with
      | [] -> []
      | a :: tl ->
          if out.(i) = None then begin
            out.(i) <- Some a;
            fill (i + 1) tl
          end
          else fill (i + 1) rem
    else rem
  in
  let leftover = fill 0 (List.rev !positional) in
  (out, leftover)

(* --- Pattern binding ------------------------------------------------------ *)

let bind_var env x objs =
  { env with vars = SMap.add x objs env.vars; tries = SMap.remove x env.tries }

(* Bind a pattern against a value. Tuple and constructor patterns whose
   arity matches the value's slots bind per-slot; everything else binds
   every variable to the whole set (conservative aliasing). *)
let rec bind_pattern env pat (v : value) =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> bind_var env txt v.whole
  | Ppat_alias (p, { txt; _ }) -> bind_pattern (bind_var env txt v.whole) p v
  | Ppat_tuple ps when Array.length v.slots = List.length ps ->
      List.fold_left
        (fun env (i, p) -> bind_pattern env p (vof v.slots.(i)))
        env
        (List.mapi (fun i p -> (i, p)) ps)
  | Ppat_construct (_, Some (_, arg)) | Ppat_variant (_, Some arg) -> (
      match arg.ppat_desc with
      | Ppat_tuple ps when Array.length v.slots = List.length ps ->
          List.fold_left
            (fun env (i, p) -> bind_pattern env p (vof v.slots.(i)))
            env
            (List.mapi (fun i p -> (i, p)) ps)
      | _ ->
          let inner =
            if Array.length v.slots = 1 then vof v.slots.(0) else vof v.whole
          in
          bind_pattern env arg inner)
  | Ppat_or (a, b) -> bind_pattern (bind_pattern env a v) b v
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) -> bind_pattern env p v
  | Ppat_record (fields, _) ->
      List.fold_left (fun env (_, p) -> bind_pattern env p (vof v.whole)) env fields
  | Ppat_array ps ->
      List.fold_left (fun env p -> bind_pattern env p (vof v.whole)) env ps
  | _ ->
      (* wildcards, constants, intervals: nothing to bind; any variables in
         unmodelled corners alias the whole set *)
      List.fold_left
        (fun env x -> bind_var env x v.whole)
        env (Rules.pattern_vars pat)

(* --- Function registration ------------------------------------------------ *)

let register_func file ~name ~loc ~params ~toplevel =
  let fid = file.nf in
  file.nf <- fid + 1;
  let nparams = List.length params in
  let fn =
    {
      fn_id = fid;
      fn_name = name;
      fn_loc = loc;
      fn_params = params;
      fn_param_objs = Array.make nparams 0;
      fn_nodes = [];
      fn_nnodes = 0;
      fn_entry = 0;
      fn_exit = 0;
      fn_nobjs = 0;
      fn_derived = Hashtbl.create 8;
      fn_quiescent = [];
      fn_sync = false;
      fn_crit = false;
      fn_toplevel = toplevel;
    }
  in
  file.fs <- fn :: file.fs;
  (fid, fn)

(* --- The builder ----------------------------------------------------------

   [eval] walks an expression in evaluation position, emitting events into
   the cursor node and returning the expression's value; [build_tail] walks
   the tail positions of a function body, emitting [Ret] sites and edging
   them to the exit node. Both thread the environment so [crit_enter]
   lexically marks the continuation as in-crit. *)

let rec eval ctx env e : value * env =
  let loc = e.pexp_loc in
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } ->
      (match SMap.find_opt x env.funcs with
      | Some fid ->
          (* bare reference to a known function (e.g. passed as a callback):
             record the reference site for the frozen-exemption fixpoint *)
          ctx.file.sites <-
            { st_callee = fid; st_caller = ctx.fn.fn_id; st_frozen = env.frozen }
            :: ctx.file.sites
      | None -> ());
      (vof (Option.value (SMap.find_opt x env.vars) ~default:oempty), env)
  | Pexp_ident _ | Pexp_constant _ | Pexp_construct (_, None)
  | Pexp_variant (_, None) | Pexp_unreachable ->
      (vnone, env)
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) -> (
      match arg.pexp_desc with
      | Pexp_tuple es ->
          let slots, env =
            List.fold_left
              (fun (acc, env) e ->
                let v, env = eval ctx env e in
                (v.whole :: acc, env))
              ([], env) es
          in
          let slots = Array.of_list (List.rev slots) in
          ({ whole = ounions (Array.to_list slots); slots }, env)
      | _ ->
          let v, env = eval ctx env arg in
          ({ whole = v.whole; slots = [| v.whole |] }, env))
  | Pexp_tuple es ->
      let slots, env =
        List.fold_left
          (fun (acc, env) e ->
            let v, env = eval ctx env e in
            (v.whole :: acc, env))
          ([], env) es
      in
      let slots = Array.of_list (List.rev slots) in
      ({ whole = ounions (Array.to_list slots); slots }, env)
  | Pexp_field (b, { txt; _ }) ->
      let bv, env = eval ctx env b in
      let fname =
        match List.rev (Rules.lident_parts txt) with f :: _ -> f | [] -> "?"
      in
      emit ctx (Deref (bv.whole, var_hint b, loc));
      (vof (osingle (derived ctx bv.whole fname)), env)
  | Pexp_setfield (b, { txt; _ }, v) ->
      let bv, env = eval ctx env b in
      let vv, env = eval ctx env v in
      let fname =
        match List.rev (Rules.lident_parts txt) with f :: _ -> f | [] -> "?"
      in
      emit ctx (Deref (bv.whole, var_hint b, loc));
      emit ctx (Store (vv.whole, loc));
      (* assignment kills the old field binding (offer-then-replace) *)
      emit ctx (Set_state (osingle (derived ctx bv.whole fname), Lattice.Neutral));
      (vnone, env)
  | Pexp_record (fields, base) ->
      let env =
        List.fold_left
          (fun env (_, e) ->
            let _, env = eval ctx env e in
            env)
          env fields
      in
      let env =
        match base with
        | Some b ->
            let _, env = eval ctx env b in
            env
        | None -> env
      in
      (* a constructed record is a fresh object: local until published, and
         deliberately NOT aliased to its field values (a context record
         holding a validated node is not itself that node) *)
      (vof (osingle (fresh_tracked ctx Lattice.Neutral)), env)
  | Pexp_array es ->
      let whole, env =
        List.fold_left
          (fun (acc, env) e ->
            let v, env = eval ctx env e in
            (ounion acc v.whole, env))
          (oempty, env) es
      in
      (vof whole, env)
  | Pexp_let (rf, vbs, body) ->
      let env' = eval_let ctx env rf vbs in
      eval ctx env' body
  | Pexp_sequence (a, b) ->
      let _, env = eval ctx env a in
      eval ctx env b
  | Pexp_ifthenelse (cond, then_, else_) ->
      let refins, env = eval_cond ctx env cond in
      let before = ctx.cur in
      let tn = new_node ctx env in
      link ctx before tn;
      ctx.cur <- tn;
      List.iter (fun (t, _) -> List.iter (emit ctx) t) refins;
      let tv, _ = eval ctx env then_ in
      let t_end = ctx.cur in
      let en = new_node ctx env in
      link ctx before en;
      ctx.cur <- en;
      List.iter (fun (_, f) -> List.iter (emit ctx) f) refins;
      let ev =
        match else_ with
        | Some e ->
            let v, _ = eval ctx env e in
            v
        | None -> vnone
      in
      let e_end = ctx.cur in
      let jn = new_node ctx env in
      link ctx t_end jn;
      link ctx e_end jn;
      ctx.cur <- jn;
      (vjoin tv ev, env)
  | Pexp_match (scrut, cases) -> eval_match ctx env ~loc scrut cases
  | Pexp_try (body, cases) ->
      let handler = new_node ctx env in
      let first_body = ctx.fn.fn_nnodes in
      let env_body = { env with handler = Some handler } in
      (* the try body starts in its own node so every node in its span can
         edge to the handler *)
      advance ctx env_body;
      let bv, _ = eval ctx env_body body in
      let last_body = ctx.fn.fn_nnodes in
      List.iter
        (fun n ->
          if n.n_id >= first_body && n.n_id < last_body then
            n.n_succs <- handler :: n.n_succs)
        ctx.fn.fn_nodes;
      let b_end = ctx.cur in
      let jn = new_node ctx env in
      link ctx b_end jn;
      let v =
        List.fold_left
          (fun acc c ->
            let cn = new_node ctx env in
            link ctx handler cn;
            ctx.cur <- cn;
            let env_c = bind_pattern env c.pc_lhs (vof oempty) in
            (match c.pc_guard with
            | Some g ->
                let _, _ = eval ctx env_c g in
                ()
            | None -> ());
            let cv, _ = eval ctx env_c c.pc_rhs in
            link ctx ctx.cur jn;
            vjoin acc cv)
          bv cases
      in
      ctx.cur <- jn;
      (v, env)
  | Pexp_while (cond, body) ->
      let head = new_node ctx env in
      link ctx ctx.cur head;
      ctx.cur <- head;
      let _, env = eval ctx env cond in
      let cond_end = ctx.cur in
      let bn = new_node ctx env in
      link ctx cond_end bn;
      ctx.cur <- bn;
      let _, _ = eval ctx env body in
      link ctx ctx.cur head;
      let after = new_node ctx env in
      link ctx cond_end after;
      ctx.cur <- after;
      (vnone, env)
  | Pexp_for (pat, lo, hi, _, body) ->
      let _, env = eval ctx env lo in
      let _, env = eval ctx env hi in
      let head = new_node ctx env in
      link ctx ctx.cur head;
      ctx.cur <- head;
      let bn = new_node ctx env in
      link ctx head bn;
      ctx.cur <- bn;
      let env_b = bind_pattern env pat vnone in
      let _, _ = eval ctx env_b body in
      link ctx ctx.cur head;
      let after = new_node ctx env in
      link ctx head after;
      ctx.cur <- after;
      (vnone, env)
  | Pexp_apply (f, args) -> eval_apply ctx env ~loc f args
  | Pexp_fun _ | Pexp_function _ ->
      (* anonymous lambda in value position (stored or passed to an unknown
         call): build it as an orphan function so its body is still checked,
         with opaque parameters *)
      let params, _ = params_of_lambda e in
      let _, fn =
        register_func ctx.file ~name:"<lambda>" ~loc ~params ~toplevel:false
      in
      build_func ctx.file fn ~funcs:env.funcs e;
      (vnone, env)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e)
  | Pexp_open (_, e) | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e)
  | Pexp_lazy e ->
      eval ctx env e
  | Pexp_assert e ->
      let _, env = eval ctx env e in
      (vnone, env)
  | _ -> (vnone, env)

and var_hint e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> x
  | Pexp_field (b, { txt; _ }) -> (
      match List.rev (Rules.lident_parts txt) with
      | f :: _ -> var_hint b ^ "." ^ f
      | [] -> var_hint b)
  | Pexp_apply (f, args) when head_name f = Some (Some "Link", "of_node") ->
      of_node_hint args
  | _ -> "<expr>"

and of_node_hint args =
  match List.rev args with
  | (_, n) :: _ -> "Link.of_node " ^ var_hint n
  | [] -> "Link.of_node"

(* Evaluate a let group. Lambda bindings become registered functions (so
   calls to them are summarized); other bindings flow values into the
   pattern. A binding whose RHS is a protection-family call is additionally
   remembered as pending so a later branch on it can refine. *)
and eval_let ctx env rf vbs =
  let is_rec = rf = Asttypes.Recursive in
  (* pre-register the group's lambda bindings so mutual recursion inside
     the group resolves *)
  let regs =
    List.filter_map
      (fun vb ->
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ } when is_lambda vb.pvb_expr ->
            let params, _ = params_of_lambda vb.pvb_expr in
            let fid, fn =
              register_func ctx.file ~name:txt ~loc:vb.pvb_loc ~params
                ~toplevel:false
            in
            Some (txt, fid, fn, vb.pvb_expr)
        | _ -> None)
      vbs
  in
  let funcs' =
    List.fold_left (fun m (name, fid, _, _) -> SMap.add name fid m) env.funcs regs
  in
  let callee_funcs = if is_rec then funcs' else env.funcs in
  List.iter
    (fun (_, _, fn, lam) -> build_func ctx.file fn ~funcs:callee_funcs lam)
    regs;
  let env_rhs = { env with funcs = (if is_rec then funcs' else env.funcs) } in
  let env' =
    List.fold_left
      (fun acc vb ->
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ } when is_lambda vb.pvb_expr ->
            ignore txt;
            acc (* already registered *)
        | _ ->
            let v, _ = eval ctx env_rhs vb.pvb_expr in
            let acc = bind_pattern acc vb.pvb_pat v in
            track_pending ctx ~env_rhs acc vb)
      { env with funcs = funcs' }
      vbs
  in
  env'

and track_pending ctx ~env_rhs env vb =
  ignore ctx;
  match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
  | Ppat_var { txt; _ }, Pexp_apply (f, args) -> (
      match head_name f with
      | Some (_, ("try_protect" | "protect_pessimistic")) ->
          (* the expected argument resolves in the binding's own scope: the
             result usually shadows it ([let cur_t = try_protect .. cur_t]) *)
          let expected = last_positional_objs env_rhs args in
          let result =
            Option.value (SMap.find_opt txt env.vars) ~default:oempty
          in
          { env with tries = SMap.add txt (result, expected) env.tries }
      | Some (_, "protection_valid") ->
          { env with pend = SMap.add txt P_valid env.pend }
      | Some (Some "Collector", "offer") ->
          let objs = last_positional_objs env args in
          { env with pend = SMap.add txt (P_offer objs) env.pend }
      | _ -> env)
  | _ -> env

(* Object set of the last positional argument, from the build-time env only
   (no events emitted — used where the argument was already evaluated). *)
and last_positional_objs env args =
  let rec last acc = function
    | [] -> acc
    | (Asttypes.Nolabel, a) :: tl -> last (Some a) tl
    | _ :: tl -> last acc tl
  in
  match last None args with
  | Some a -> static_objs env a
  | None -> oempty

(* Build-time-only object set of an expression: idents, field chains and
   transparent wrappers, with no event emission. *)
and static_objs env e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } ->
      Option.value (SMap.find_opt x env.vars) ~default:oempty
  | Pexp_field (b, _) -> static_objs env b
  | Pexp_constraint (e, _) -> static_objs env e
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> static_objs env a
  | Pexp_tuple es -> ounions (List.map (static_objs env) es)
  | Pexp_apply (f, args) -> (
      match head_name f with
      | Some (qual, last)
        when is_transparent qual last || (qual, last) = (Some "Link", "of_node")
        ->
          ounions (List.map (fun (_, a) -> static_objs env a) args)
      | _ -> oempty)
  | _ -> oempty

(* Conditions: evaluate, and collect refinements from the && spine — each
   refinement is (events for the true branch, events for the false branch).
   [not] flips; [||] spines refine nothing. *)
and eval_cond ctx env cond =
  match cond.pexp_desc with
  | Pexp_apply (f, [ (_, a) ]) when head_name f = Some (None, "not") ->
      let refins, env = eval_cond ctx env a in
      (List.map (fun (t, f) -> (f, t)) refins, env)
  | Pexp_apply (f, [ (_, a); (_, b) ]) when head_name f = Some (None, "&&") ->
      let ra, env = eval_cond ctx env a in
      let rb, env = eval_cond ctx env b in
      (* under &&, false-branch refinements are unsound (either conjunct may
         have failed): keep only true-branch events *)
      (List.map (fun (t, _) -> (t, [])) (ra @ rb), env)
  | Pexp_ident { txt; _ } when Longident.last txt = "needs_protection" ->
      (* a scheme that answers false here guards raw reads with its crit
         section instead of hazard slots (EBR-style): on the false branch
         every object already read is safe to dereference *)
      ([ ([], [ Scheme_safe ]) ], env)
  | Pexp_ident { txt = Longident.Lident x; _ }
    when SMap.mem x env.pend ->
      let refin =
        match SMap.find x env.pend with
        | P_offer objs -> [ ([ Set_state (objs, Lattice.Handed_off) ], []) ]
        | P_valid -> [ ([ Validate_protected ], []) ]
      in
      (refin, env)
  | Pexp_apply
      ( f,
        [ (Asttypes.Nolabel,
           { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }) ] )
    when head_name f = Some (Some "Tagged", "is_invalid")
         && SMap.mem x env.tries ->
      (* TryProtect's result: one without the invalid bit is the validated
         current link value; the invalid one is the shared sentinel
         carrying no node *)
      let result, expected = SMap.find x env.tries in
      ( [ ( [ Set_state (result, Lattice.Invalidated) ],
            [ Set_state (ounion result expected, Lattice.Validated) ] ) ],
        env )
  | Pexp_apply (f, args) -> (
      let v_refin =
        match head_name f with
        | Some (_, "protection_valid") -> Some [ ([ Validate_protected ], []) ]
        | Some (Some "Collector", "offer") ->
            Some
              [ ([ Set_state (last_positional_objs_dyn ctx env args, Lattice.Handed_off) ], []) ]
        | Some (Some "Tagged", "is_invalid") ->
            Some
              [ ([ Set_state (last_positional_objs_dyn ctx env args, Lattice.Invalidated) ], []) ]
        | _ -> None
      in
      match v_refin with
      | Some r ->
          let _, env = eval ctx env cond in
          (r, env)
      | None ->
          let _, env = eval ctx env cond in
          ([], env))
  | _ ->
      let _, env = eval ctx env cond in
      ([], env)

and last_positional_objs_dyn ctx env args =
  ignore ctx;
  last_positional_objs env args

(* Match: pending booleans branch like conditions; everything else is a
   plain value match with per-case binding (a try_protect result included:
   it is validated by the [Tagged.is_invalid] branch, not by its shape). *)
and eval_match ctx env ~loc scrut cases =
  ignore loc;
  let special =
    match scrut.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } when SMap.mem x env.pend ->
        Some (`Pending (SMap.find x env.pend))
    | _ -> None
  in
  match special with
  | Some (`Pending p) ->
      let before = ctx.cur in
      let jn = new_node ctx env in
      let v =
        List.fold_left
          (fun acc c ->
            let cn = new_node ctx env in
            link ctx before cn;
            ctx.cur <- cn;
            let is_true =
              match c.pc_lhs.ppat_desc with
              | Ppat_construct ({ txt = Longident.Lident "true"; _ }, _) -> true
              | _ -> false
            in
            if is_true then
              (match p with
              | P_offer objs -> emit ctx (Set_state (objs, Lattice.Handed_off))
              | P_valid -> emit ctx Validate_protected);
            let env_c = bind_pattern env c.pc_lhs vnone in
            let cv, _ = eval ctx env_c c.pc_rhs in
            link ctx ctx.cur jn;
            vjoin acc cv)
          vnone cases
      in
      ctx.cur <- jn;
      (v, env)
  | None ->
      let sv, env = eval ctx env scrut in
      let nulls = sv.whole in
      let before = ctx.cur in
      let jn = new_node ctx env in
      let v =
        List.fold_left
          (fun acc c ->
            let cn = new_node ctx env in
            link ctx before cn;
            ctx.cur <- cn;
            if nulls <> oempty && is_null_pat c.pc_lhs then
              emit ctx (Set_state (nulls, Lattice.Neutral));
            let env_c = bind_pattern env c.pc_lhs sv in
            (match c.pc_guard with
            | Some g ->
                let _, _ = eval ctx env_c g in
                ()
            | None -> ());
            let cv, _ = eval ctx env_c c.pc_rhs in
            link ctx ctx.cur jn;
            vjoin acc cv)
          vnone cases
      in
      ctx.cur <- jn;
      (v, env)

(* [match Tagged.shape x with Tagged.Null -> ...]: the Null arm witnesses
   that [x] is null, which carries no protection obligation (dereferencing
   requires a Ptr arm, observed again). [Tagged.shape] is transparent, so
   the scrutinee's objects are [x]'s, and refining them to Neutral on that
   arm keeps a null path from dragging the join of a sibling arm's
   protect-and-validate chain down to Raw. On the Ptr arm, [Tagged.node x]
   is transparent too, so every field read through it is a dereference of
   the tagged value. *)
and is_null_pat (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> (
      match List.rev (Rules.lident_parts txt) with
      | "Null" :: _ -> true
      | _ -> false)
  | Ppat_or (a, b) -> is_null_pat a && is_null_pat b
  | _ -> false

(* --- Applications: the Smr_intf builtin contracts -------------------------- *)

and eval_args ctx env args =
  let vals, env =
    List.fold_left
      (fun (acc, env) (lbl, a) ->
        let v, env = eval ctx env a in
        ((lbl, a, v) :: acc, env))
      ([], env) args
  in
  (List.rev vals, env)

and all_arg_objs vals = ounions (List.map (fun (_, _, v) -> v.whole) vals)

and positional_vals vals =
  List.filter_map
    (fun (lbl, _, v) -> if lbl = Asttypes.Nolabel then Some v else None)
    vals

and last_positional vals =
  match List.rev (positional_vals vals) with v :: _ -> v.whole | [] -> oempty

and eval_apply ctx env ~loc f args =
  let name = head_name f in
  match name with
  (* raise family: edge to the innermost handler (or function exit) and
     continue in an unreachable node, so a [raise Restart] arm does not
     poison the join after its match *)
  | Some (_, ("raise" | "raise_notrace" | "failwith" | "invalid_arg")) ->
      let _, env = eval_args ctx env args in
      (* with no local handler the exceptional path leaves the function
         without reaching its exit: a caller only continues after a NORMAL
         return, so these facts must not join into param_exit (the
         validate-or-raise-Restart idiom would otherwise report its param
         as never validated) *)
      (match env.handler with
      | Some h -> link ctx ctx.cur h
      | None -> ());
      (* fresh node with no predecessors: the solver sees it unreached *)
      ctx.cur <- new_node ctx env;
      (vnone, env)
  | Some (qual, "of_node") when qual = Some "Link" ->
      (* [Link.of_node n] is [n]'s embedded link field: like [n.next], it
         dereferences [n] and yields the field's derived object *)
      let vals, env = eval_args ctx env args in
      let base = last_positional vals in
      emit ctx (Deref (base, of_node_hint args, loc));
      (vof (osingle (derived ctx base "next")), env)
  | Some (qual, "get") when qual = Some "Link" ->
      let vals, env = eval_args ctx env args in
      ignore vals;
      ctx_raw_read ctx env
  | Some (qual, "get_quiescent") when qual = Some "Link" ->
      let _, env = eval_args ctx env args in
      ctx.fn.fn_quiescent <- loc :: ctx.fn.fn_quiescent;
      (vof (osingle (fresh_tracked ctx Lattice.Quiescent)), env)
  | Some (qual, ("cas" | "cas_clean" | "set")) when qual = Some "Link" ->
      let vals, env = eval_args ctx env args in
      ctx.fn.fn_sync <- true;
      emit ctx (Publish (last_positional vals));
      (vnone, env)
  | Some (qual, "mark_invalid") when qual = Some "Link" ->
      let vals, env = eval_args ctx env args in
      emit ctx (Set_state (all_arg_objs vals, Lattice.Invalidated));
      (vnone, env)
  | Some (qual, "compare_and_set") when qual = Some "Atomic" ->
      let vals, env = eval_args ctx env args in
      ctx.fn.fn_sync <- true;
      emit ctx (Use (all_arg_objs vals, loc));
      (vnone, env)
  | Some (qual, _) when qual = Some "Atomic" ->
      (* GC-managed descriptor reads/writes: not SMR-tracked *)
      let _, env = eval_args ctx env args in
      (vnone, env)
  | Some (_, "protect") ->
      let vals, env = eval_args ctx env args in
      ctx.fn.fn_sync <- true;
      emit ctx (Protect (all_arg_objs vals));
      (vnone, env)
  | Some (qual, (("try_protect" | "protect_pessimistic") as last))
    when not (qual = None && SMap.mem last env.funcs) ->
      (* TryProtect announces [expected] and returns the validated current
         value or the invalid sentinel, never a merely-Protected one *)
      let vals, env = eval_args ctx env args in
      ctx.fn.fn_sync <- true;
      emit ctx (Protect (last_positional vals));
      (vof (osingle (fresh_tracked ctx Lattice.Validated)), env)
  | Some (_, "protection_valid") ->
      let _, env = eval_args ctx env args in
      (vnone, env)
  (* a local definition shadows the name-based retire/invalidate contracts:
     scheme files define [retire]/[do_invalidation] themselves, and those
     bodies are what the summary should say, not the Smr_intf automaton;
     likewise Ds_common's own [try_protect] and [protect_pessimistic] *)
  | Some (None, last)
    when (List.mem last retire_names || List.mem last invalidate_names
         || last = "try_protect" || last = "protect_pessimistic")
         && SMap.mem last env.funcs ->
      eval_local_call ctx env ~loc (SMap.find last env.funcs) args
  | Some (_, last) when List.mem last retire_names ->
      (* retire the node argument only — the scheme handle (first arg in
         [retire h n] / method style) is not itself retired *)
      let vals, env = eval_args ctx env args in
      ctx.fn.fn_sync <- true;
      emit ctx (Retire (last_positional vals, loc));
      (vnone, env)
  | Some (_, last) when List.mem last invalidate_names ->
      let vals, env = eval_args ctx env args in
      emit ctx (Set_state (last_positional vals, Lattice.Invalidated));
      (vnone, env)
  | Some (_, "check_access") ->
      let vals, env = eval_args ctx env args in
      emit ctx (Deref (all_arg_objs vals, "<access-check>", loc));
      (vnone, env)
  | Some (_, "crit_enter") ->
      let _, env = eval_args ctx env args in
      ctx.fn.fn_sync <- true;
      ctx.fn.fn_crit <- true;
      let env = { env with in_crit = true } in
      advance ctx env;
      (vnone, env)
  | Some (_, "crit_exit") ->
      let _, env = eval_args ctx env args in
      emit ctx Demote_all;
      let env = { env with in_crit = false } in
      advance ctx env;
      (vnone, env)
  | Some (_, "release") ->
      let _, env = eval_args ctx env args in
      emit ctx Demote_all;
      (vnone, env)
  | Some (_, "with_crit") -> eval_with_crit ctx env ~loc args
  | Some (_, "try_unlink") -> eval_try_unlink ctx env ~loc args
  | Some (Some "Collector", "offer") ->
      (* success not branched on here: ownership can no longer be assumed
         either way, so leave the bag alone (refinements handle the
         branched form) *)
      let vals, env = eval_args ctx env args in
      emit ctx (Use (all_arg_objs vals, loc));
      (vnone, env)
  | Some (qual, last) when is_blocking qual last ->
      let vals, env = eval_args ctx env args in
      emit ctx (Use (all_arg_objs vals, loc));
      emit ctx (Blocking ((match qual with Some q -> q ^ "." ^ last | None -> last), loc));
      (vnone, env)
  | Some (qual, last) when is_transparent qual last ->
      let vals, env = eval_args ctx env args in
      (vof (all_arg_objs vals), env)
  | Some (qual, last) when is_higher_order qual last ->
      eval_higher_order ctx env ~loc args
  | Some (None, last) when SMap.mem last env.funcs ->
      eval_local_call ctx env ~loc (SMap.find last env.funcs) args
  | Some (qual, last) -> (
      match ctx.file.ext ~qual last with
      | Some s -> eval_ext_call ctx env ~loc s args
      | None -> eval_unknown ctx env ~loc f args)
  | None -> eval_unknown ctx env ~loc f args

and ctx_raw_read ctx env =
  (vof (osingle (fresh_tracked ctx Lattice.Raw)), env)

(* Unknown call: evaluate everything, inline lambda-literal arguments once
   with opaque parameters (so callback bodies are still checked), and mark
   the tracked arguments as used. *)
and eval_unknown ctx env ~loc f args =
  let env =
    match f.pexp_desc with
    | Pexp_field (b, _) ->
        let _, env = eval ctx env b in
        env
    | _ -> env
  in
  let objs = ref oempty in
  let env =
    List.fold_left
      (fun env (_, a) ->
        if is_lambda a then begin
          inline_lambda ctx env a ~param_objs:oempty;
          env
        end
        else
          let v, env = eval ctx env a in
          objs := ounion !objs v.whole;
          env)
      env args
  in
  emit ctx (Use (!objs, loc));
  (vof (osingle (fresh_tracked ctx Lattice.Neutral)), env)

(* Inline a lambda literal at its occurrence: parameters bind [param_objs],
   the body's events land in the current flow position. Used for known
   higher-order iterators and for callbacks to unknown calls. *)
and inline_lambda ctx env lam ~param_objs =
  let params, final = params_of_lambda lam in
  let env' =
    List.fold_left
      (fun env (_, vars) ->
        List.fold_left
          (fun env x -> bind_var env x param_objs)
          env vars)
      env params
  in
  match final.pexp_desc with
  | Pexp_function cases ->
      let before = ctx.cur in
      let jn = new_node ctx env' in
      List.iter
        (fun c ->
          let cn = new_node ctx env' in
          link ctx before cn;
          ctx.cur <- cn;
          let env_c = bind_pattern env' c.pc_lhs (vof param_objs) in
          let _, _ = eval ctx env_c c.pc_rhs in
          link ctx ctx.cur jn)
        cases;
      ctx.cur <- jn
  | _ ->
      let _, _ = eval ctx env' final in
      ()

and eval_higher_order ctx env ~loc args =
  ignore loc;
  (* collection objects = union of non-lambda argument objects *)
  let coll = ref oempty in
  let env =
    List.fold_left
      (fun env (_, a) ->
        if is_lambda a then env
        else
          let v, env = eval ctx env a in
          coll := ounion !coll v.whole;
          env)
      env args
  in
  List.iter
    (fun (_, a) -> if is_lambda a then inline_lambda ctx env a ~param_objs:!coll)
    args;
  (vof !coll, env)

(* with_crit handle stats (fun () -> body): enter, loop the body (the
   [`Retry]/[`Prot] arms refresh and go round), demote on exit. *)
and eval_with_crit ctx env ~loc args =
  ignore loc;
  ctx.fn.fn_sync <- true;
  ctx.fn.fn_crit <- true;
  let lam = List.find_opt (fun (_, a) -> is_lambda a) args in
  let env =
    List.fold_left
      (fun env (_, a) ->
        if is_lambda a then env
        else
          let _, env = eval ctx env a in
          env)
      env args
  in
  match lam with
  | None -> (vnone, env)
  | Some (_, lam) ->
      let env_crit = { env with in_crit = true } in
      let head = new_node ctx env_crit in
      link ctx ctx.cur head;
      ctx.cur <- head;
      inline_lambda ctx env_crit lam ~param_objs:oempty;
      (* retry edge and exit edge *)
      link ctx ctx.cur head;
      let after = new_node ctx env in
      link ctx ctx.cur after;
      ctx.cur <- after;
      emit ctx Demote_all;
      (vof (osingle (fresh_tracked ctx Lattice.Neutral)), env)

(* try_unlink ~frontier ~do_unlink ~invalidate ...: the labelled callback
   arguments execute under the scheme's own protection discipline (the
   paper's unlink contract), so their bodies — and any helper they are the
   only callers of — are frozen for the deref/retire rules. *)
and eval_try_unlink ctx env ~loc args =
  ctx.fn.fn_sync <- true;
  let frozen_labels = [ "frontier"; "do_unlink"; "invalidate" ] in
  let env =
    List.fold_left
      (fun env (lbl, a) ->
        let frozen_arg =
          match lbl with
          | Asttypes.Labelled s | Asttypes.Optional s ->
              List.mem s frozen_labels
          | Asttypes.Nolabel -> false
        in
        if frozen_arg then begin
          let env_f = { env with frozen = true } in
          advance ctx env_f;
          (if is_lambda a then inline_lambda ctx env_f a ~param_objs:oempty
           else
             let _, _ = eval ctx env_f a in
             ());
          advance ctx env;
          env
        end
        else if is_lambda a then begin
          inline_lambda ctx env a ~param_objs:oempty;
          env
        end
        else
          let _, env = eval ctx env a in
          env)
      env args
  in
  ignore loc;
  (vof (osingle (fresh_tracked ctx Lattice.Neutral)), env)

(* Call to a function with a (possibly still-bottom) summary: emit the
   Call event with aligned argument object sets and allocate result
   objects the solver will seed from the callee's return states. *)
and eval_summarized_call ctx env ~loc callee params summary args =
  let vals, env = eval_args ctx env args in
  let arg_exprs = List.map (fun (lbl, a, _) -> (lbl, a)) vals in
  let aligned, leftover = align_args params arg_exprs in
  let argsets =
    Array.map
      (function
        | Some a -> static_objs env a
        | None -> oempty)
      aligned
  in
  (* static_objs misses computed arguments (e.g. [advance (Link.get l)]):
     recover their object sets from the already-evaluated values *)
  let by_expr = List.map (fun (_, a, v) -> (a, v)) vals in
  Array.iteri
    (fun i a ->
      match a with
      | Some a when argsets.(i) = oempty -> (
          match List.assq_opt a by_expr with
          | Some v -> argsets.(i) <- v.whole
          | None -> ())
      | _ -> ())
    aligned;
  List.iter
    (fun a ->
      match List.assq_opt a by_expr with
      | Some v -> emit ctx (Use (v.whole, loc))
      | None -> ())
    leftover;
  let slot_shapes =
    match summary with
    | Some (s : Summary.fn) -> s.Summary.s_ret_slots
    | None -> [||]
  in
  let nslots = Array.length slot_shapes in
  let ret_whole = fresh_obj ctx in
  let ret_slots = Array.init nslots (fun _ -> fresh_obj ctx) in
  emit ctx (Call { callee; args = argsets; ret_whole; ret_slots; loc });
  (* [Pass] shapes alias the caller's argument objects outright: later
     validation or retirement of the returned value then acts on the same
     abstract objects the caller passed in *)
  let resolve shape fallback =
    match shape with
    | Summary.Pass i when i < Array.length argsets && argsets.(i) <> oempty ->
        argsets.(i)
    | _ -> osingle fallback
  in
  let slot_sets =
    Array.mapi (fun j o -> resolve slot_shapes.(j) o) ret_slots
  in
  let whole =
    match summary with
    | Some (s : Summary.fn) -> resolve s.Summary.s_ret_whole ret_whole
    | None -> osingle ret_whole
  in
  ({ whole; slots = slot_sets }, env)

and eval_local_call ctx env ~loc fid args =
  ctx.file.sites <-
    { st_callee = fid; st_caller = ctx.fn.fn_id; st_frozen = env.frozen }
    :: ctx.file.sites;
  let callee_fn = List.find (fun f -> f.fn_id = fid) ctx.file.fs in
  eval_summarized_call ctx env ~loc (Local fid) callee_fn.fn_params
    (ctx.file.summaries fid) args

and eval_ext_call ctx env ~loc s args =
  let params = List.init s.s_arity (fun _ -> (None, [])) in
  eval_summarized_call ctx env ~loc (Ext s) params (Some s) args

(* --- Tail positions -------------------------------------------------------- *)

(* Build an expression in return position: branches stay in tail so each
   return site records the per-slot states at THAT site (a [None] arm
   returning an empty slot contributes Bot, not a poisoning Raw join). *)
and build_tail ctx env e =
  match e.pexp_desc with
  | Pexp_let (rf, vbs, body) ->
      let env' = eval_let ctx env rf vbs in
      build_tail ctx env' body
  | Pexp_sequence (a, b) ->
      let _, env = eval ctx env a in
      build_tail ctx env b
  | Pexp_ifthenelse (cond, then_, else_) ->
      let refins, env = eval_cond ctx env cond in
      let before = ctx.cur in
      let tn = new_node ctx env in
      link ctx before tn;
      ctx.cur <- tn;
      List.iter (fun (t, _) -> List.iter (emit ctx) t) refins;
      build_tail ctx env then_;
      let en = new_node ctx env in
      link ctx before en;
      ctx.cur <- en;
      List.iter (fun (_, f) -> List.iter (emit ctx) f) refins;
      (match else_ with
      | Some e -> build_tail ctx env e
      | None ->
          emit ctx (Ret (vnone, e.pexp_loc));
          link ctx ctx.cur ctx.fn.fn_exit)
  | Pexp_match (scrut, cases) -> build_tail_match ctx env scrut cases
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) | Pexp_open (_, e) ->
      build_tail ctx env e
  | Pexp_function cases ->
      (* curried continuation: an extra anonymous parameter *)
      let o = fresh_tracked ctx Lattice.Neutral in
      build_tail_match_value ctx env (vof (osingle o)) cases
  | Pexp_fun _ ->
      let params, final = params_of_lambda e in
      let env' =
        List.fold_left
          (fun env (_, vars) ->
            List.fold_left
              (fun env x ->
                let o = fresh_tracked ctx Lattice.Neutral in
                bind_var env x (osingle o))
              env vars)
          env params
      in
      build_tail ctx env' final
  | _ ->
      let v, env = eval ctx env e in
      ignore env;
      emit ctx (Ret (v, e.pexp_loc));
      link ctx ctx.cur ctx.fn.fn_exit

and build_tail_match ctx env scrut cases =
  match scrut.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } when SMap.mem x env.pend ->
      let p = SMap.find x env.pend in
      let before = ctx.cur in
      List.iter
        (fun c ->
          let cn = new_node ctx env in
          link ctx before cn;
          ctx.cur <- cn;
          let is_true =
            match c.pc_lhs.ppat_desc with
            | Ppat_construct ({ txt = Longident.Lident "true"; _ }, _) -> true
            | _ -> false
          in
          if is_true then
            (match p with
            | P_offer objs -> emit ctx (Set_state (objs, Lattice.Handed_off))
            | P_valid -> emit ctx Validate_protected);
          let env_c = bind_pattern env c.pc_lhs vnone in
          build_tail ctx env_c c.pc_rhs)
        cases
  | _ ->
      let sv, env = eval ctx env scrut in
      build_tail_match_value ctx env ~nulls:sv.whole sv cases

and build_tail_match_value ctx env ?(nulls = oempty) sv cases =
  let before = ctx.cur in
  List.iter
    (fun c ->
      let cn = new_node ctx env in
      link ctx before cn;
      ctx.cur <- cn;
      if nulls <> oempty && is_null_pat c.pc_lhs then
        emit ctx (Set_state (nulls, Lattice.Neutral));
      let env_c = bind_pattern env c.pc_lhs sv in
      (match c.pc_guard with
      | Some g ->
          let _, _ = eval ctx env_c g in
          ()
      | None -> ());
      build_tail ctx env_c c.pc_rhs)
    cases

(* --- Whole functions -------------------------------------------------------- *)

(* Build one function's CFG. The environment is fresh apart from the
   in-scope function table: a nested helper does not see the enclosing
   function's tracked variables (object ids are per-CFG), which is the
   closure soundness caveat documented in DESIGN.md §15. *)
and build_func file fn ~funcs lam =
  let env = env0 ~funcs in
  let ctx = { file; fn; cur = 0 } in
  let entry = new_node ctx env in
  ctx.cur <- entry;
  let exit_ = new_node ctx env in
  fn.fn_exit <- exit_;
  (* parameter objects, one per positional parameter *)
  let params, final = params_of_lambda lam in
  let env =
    List.fold_left
      (fun (i, env) (_, vars) ->
        let o = fresh_obj ctx in
        fn.fn_param_objs.(i) <- o;
        ( i + 1,
          List.fold_left
            (fun env x -> bind_var env x (osingle o))
            env vars ))
      (0, env) params
    |> snd
  in
  (match final.pexp_desc with
  | Pexp_function cases ->
      let last = List.length params - 1 in
      let pv =
        if last >= 0 then vof (osingle fn.fn_param_objs.(last)) else vnone
      in
      build_tail_match_value ctx env pv cases
  | _ -> build_tail ctx env final)

(* --- File driver ------------------------------------------------------------ *)

(* Build every top-level function of [ast] (pre-registering the whole group
   so mutual recursion resolves), using [summaries] from the previous
   iteration for call events and [ext] for qualified cross-file calls.
   Nested helpers register themselves during the build. *)
let build_file ~ext ~summaries ast =
  let file = { fs = []; nf = 0; sites = []; ext; summaries } in
  let tops = Rules.funcs_of_file ast in
  let regs =
    List.map
      (fun (f : Rules.func) ->
        let params, _ = params_of_lambda f.f_body in
        let fid, fn =
          register_func file ~name:f.f_name ~loc:f.f_loc ~params ~toplevel:true
        in
        (fid, fn, f.f_body))
      tops
  in
  let funcs0 =
    List.fold_left (fun m (fid, fn, _) -> SMap.add fn.fn_name fid m) SMap.empty regs
  in
  List.iter (fun (_, fn, body) -> build_func file fn ~funcs:funcs0 body) regs;
  file
