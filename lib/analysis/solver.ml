(* Worklist fixpoint over a function CFG, and the event transfer function
   shared by the two consumers: summarization (Raw-seeded parameters,
   solver.summarize) and the error pass (Neutral-seeded, rules_flow.ml).

   The abstract domain is Lattice.t — per-object facts plus reachability —
   and every merge is a join, so a deref is checked against the weakest
   state on any path to it: one path that reaches it Retired drags the
   join down to Retired and the rule fires. Termination: node in-states only
   ever descend the finite-height chain (join accumulates), so the
   worklist drains after at most height × objects × nodes relaxations. *)

type obs = {
  ob_deref : int -> Lattice.fact -> string -> Location.t -> unit;
  ob_use : int -> Lattice.fact -> Location.t -> unit;
  ob_retire : int -> Lattice.fact -> Location.t -> unit;
      (** observed before the retire transfer, so the published bit and the
          prior state are still visible *)
  ob_ret : int -> Lattice.fact -> Location.t -> unit;
  ob_store : int -> Lattice.fact -> Location.t -> unit;
}

let silent =
  {
    ob_deref = (fun _ _ _ _ -> ());
    ob_use = (fun _ _ _ -> ());
    ob_retire = (fun _ _ _ -> ());
    ob_ret = (fun _ _ _ -> ());
    ob_store = (fun _ _ _ -> ());
  }

(* Apply one event to a fact array in place. [lookup] resolves a callee to
   its current summary ([None] on the first iteration, before one exists). *)
let apply ~lookup ~obs (facts : Lattice.fact array) (ev : Cfg.ev) =
  let get o = facts.(o) in
  let set o f = facts.(o) <- f in
  let set_state objs st =
    List.iter
      (fun o -> if (get o).Lattice.st <> Lattice.Bot then set o { (get o) with Lattice.st })
      objs
  in
  let retire_one loc o =
    let f = get o in
    obs.ob_retire o f loc;
    (* retirement does not end a protection window the caller still holds:
       a validated/protected/quiescent object stays dereferenceable by its
       owner (Treiber pop reads [n.value] after retiring [n]) *)
    match f.Lattice.st with
    | Lattice.Raw | Lattice.Neutral -> set o { f with Lattice.st = Lattice.Retired }
    | _ -> ()
  in
  match ev with
  | Cfg.Fresh (o, st) -> set o { Lattice.st; published = false }
  | Cfg.Set_state (objs, st) -> set_state objs st
  | Cfg.Protect objs ->
      (* announcing a hazard slot turns a shared-link read into a pending
         obligation; it must not create one for a Neutral object (a struct
         field like the tree root, or an opaque parameter) and must not
         revoke a validation already established *)
      List.iter
        (fun o ->
          let f = get o in
          match f.Lattice.st with
          | Lattice.Raw -> set o { f with Lattice.st = Lattice.Protected }
          | _ -> ())
        objs
  | Cfg.Validate_protected ->
      Array.iteri
        (fun o f ->
          if f.Lattice.st = Lattice.Protected then
            set o { f with Lattice.st = Lattice.Validated })
        facts
  | Cfg.Scheme_safe ->
      Array.iteri
        (fun o f ->
          match f.Lattice.st with
          | Lattice.Raw | Lattice.Protected ->
              set o { f with Lattice.st = Lattice.Validated }
          | _ -> ())
        facts
  | Cfg.Demote_all ->
      Array.iteri
        (fun o f ->
          match f.Lattice.st with
          | Lattice.Protected | Lattice.Validated ->
              set o { f with Lattice.st = Lattice.Raw }
          | _ -> ())
        facts
  | Cfg.Publish objs ->
      List.iter (fun o -> set o { (get o) with Lattice.published = true }) objs
  | Cfg.Retire (objs, loc) -> List.iter (retire_one loc) objs
  | Cfg.Deref (objs, hint, loc) ->
      List.iter (fun o -> obs.ob_deref o (get o) hint loc) objs
  | Cfg.Use (objs, loc) -> List.iter (fun o -> obs.ob_use o (get o) loc) objs
  | Cfg.Ret (v, loc) ->
      List.iter (fun o -> obs.ob_ret o (get o) loc) v.Cfg.whole
  | Cfg.Store (objs, loc) ->
      List.iter (fun o -> obs.ob_store o (get o) loc) objs
  | Cfg.Blocking _ -> ()
  | Cfg.Call { callee; args; ret_whole; ret_slots; loc } ->
      let s = lookup callee in
      (match s with
      | None -> ()
      | Some (s : Summary.fn) ->
          let n = min s.s_arity (Array.length args) in
          for i = 0 to n - 1 do
            if i < Array.length s.s_retires && s.s_retires.(i) then
              (* the publish-discipline half of F3 is only checkable inside
                 the callee, where its unlinking CAS precedes the retire;
                 across the boundary propagate the retired state (so later
                 caller uses still flag) and report only double retirement *)
              List.iter
                (fun o ->
                  let f = get o in
                  if f.Lattice.st = Lattice.Retired then obs.ob_retire o f loc;
                  match f.Lattice.st with
                  | Lattice.Raw | Lattice.Neutral ->
                      set o { f with Lattice.st = Lattice.Retired }
                  | _ -> ())
                args.(i);
            if i < Array.length s.s_param_exit then
              match s.s_param_exit.(i) with
              | (Lattice.Validated | Lattice.Protected | Lattice.Invalidated
                | Lattice.Handed_off) as st ->
                  set_state args.(i) st
              | _ -> ()
          done);
      let slot_state = function
        | Summary.Pass i when i < Array.length args && args.(i) <> [] ->
            (* context-sensitive: the callee returns parameter [i]
               verbatim, so the result carries the argument's current
               state (a validated cursor stays validated across the
               call) *)
            List.fold_left
              (fun acc ao -> Lattice.join acc (get ao).Lattice.st)
              Lattice.Bot args.(i)
        | Summary.Pass _ -> Lattice.Neutral
        | Summary.St st -> st
      in
      let whole_st =
        match s with
        | Some s -> slot_state s.s_ret_whole
        | None -> Lattice.Neutral
      in
      (* a [St Bot] shape stays Bot — the join identity — so a recursive
         call's not-yet-known contribution cannot drag the ret-site join
         below its eventual fixpoint (an unknown CALLEE is Neutral above) *)
      set ret_whole { Lattice.st = whole_st; published = false };
      Array.iteri
        (fun j o ->
          let st =
            match s with
            | Some s when j < Array.length s.s_ret_slots ->
                slot_state s.s_ret_slots.(j)
            | _ -> Lattice.Neutral
          in
          set o { Lattice.st; published = false })
        ret_slots

(* --- Fixpoint -------------------------------------------------------------- *)

(* In-state per node; entry seeds every parameter object with [seed]. *)
let solve ~lookup (fn : Cfg.func) ~seed : Lattice.t array =
  let nodes = Cfg.nodes_of fn in
  let nn = Array.length nodes in
  let ins = Array.make nn Lattice.unreached in
  let entry_facts =
    match Lattice.entry (max fn.Cfg.fn_nobjs 1) with
    | Some a ->
        Array.iter
          (fun o -> a.(o) <- { Lattice.st = seed; published = false })
          fn.Cfg.fn_param_objs;
        Some a
    | None -> None
  in
  ins.(0) <- entry_facts;
  let work = Queue.create () in
  Queue.add 0 work;
  let on_work = Array.make nn false in
  on_work.(0) <- true;
  while not (Queue.is_empty work) do
    let id = Queue.pop work in
    on_work.(id) <- false;
    match Lattice.copy ins.(id) with
    | None -> ()
    | Some facts ->
        List.iter
          (fun ev -> apply ~lookup ~obs:silent facts ev)
          (List.rev nodes.(id).Cfg.n_evs);
        let out = Some facts in
        List.iter
          (fun succ ->
            let joined = Lattice.join_state ins.(succ) out in
            if not (Lattice.state_equal joined ins.(succ)) then begin
              ins.(succ) <- joined;
              if not on_work.(succ) then begin
                on_work.(succ) <- true;
                Queue.add succ work
              end
            end)
          nodes.(id).Cfg.n_succs
  done;
  ins

(* Replay every reachable node's events against its solved in-state with a
   live observer: the error pass and the summarizer are both replays. *)
let replay ~lookup ~obs (fn : Cfg.func) (ins : Lattice.t array) =
  let nodes = Cfg.nodes_of fn in
  Array.iteri
    (fun id n ->
      match Lattice.copy ins.(id) with
      | None -> ()
      | Some facts ->
          List.iter (fun ev -> apply ~lookup ~obs facts ev) (List.rev n.Cfg.n_evs))
    nodes

(* --- Summarization ---------------------------------------------------------- *)

let is_param (fn : Cfg.func) o =
  let rec idx i =
    if i >= Array.length fn.Cfg.fn_param_objs then None
    else if fn.Cfg.fn_param_objs.(i) = o then Some i
    else idx (i + 1)
  in
  idx 0

(* Raw-seeded summary of one function under the current summary table. *)
let summarize ~lookup (fn : Cfg.func) : Summary.fn =
  let arity = List.length fn.Cfg.fn_params in
  let ins = solve ~lookup fn ~seed:Lattice.Raw in
  let retires = Array.make arity false in
  let ret_sites :
      ((Cfg.objset * Lattice.state) array * (Cfg.objset * Lattice.state)) list
      ref =
    ref []
  in
  let blocks = ref None in
  (* Ret events need slot-level states, which the generic observer does not
     carry: walk them with a dedicated replay observer that snapshots facts
     at the site. Per-object callbacks cover the param bits. *)
  let obs =
    {
      silent with
      ob_retire =
        (fun o _ _ ->
          match is_param fn o with
          | Some i -> retires.(i) <- true
          | None -> ());
    }
  in
  replay ~lookup ~obs fn ins;
  (* second pass for return shapes and blocking sites, where we need the
     fact array mid-node rather than per-object callbacks *)
  let nodes = Cfg.nodes_of fn in
  Array.iteri
    (fun id n ->
      match Lattice.copy ins.(id) with
      | None -> ()
      | Some facts ->
          List.iter
            (fun ev ->
              (match ev with
              | Cfg.Ret (v, _) when v.Cfg.whole <> [] ->
                  let state_of objs =
                    List.fold_left
                      (fun acc o -> Lattice.join acc facts.(o).Lattice.st)
                      Lattice.Bot objs
                  in
                  let slots =
                    Array.map (fun objs -> (objs, state_of objs)) v.Cfg.slots
                  in
                  ret_sites :=
                    (slots, (v.Cfg.whole, state_of v.Cfg.whole)) :: !ret_sites
              | Cfg.Blocking (name, _) when (not n.Cfg.n_crit) && !blocks = None
                ->
                  blocks := Some name
              | Cfg.Call { callee; _ } when not n.Cfg.n_crit -> (
                  match lookup callee with
                  | Some (s : Summary.fn) when s.s_blocks <> None ->
                      if !blocks = None then blocks := s.s_blocks
                  | _ -> ())
              | _ -> ());
              apply ~lookup ~obs:silent facts ev)
            (List.rev n.Cfg.n_evs))
    nodes;
  (* return shape: pad mismatching sites with their whole-state so an
     unknown-shaped site (a first-iteration recursive tail call) weakens
     every slot instead of erasing the shape. A slot whose object set is
     exactly one parameter at EVERY full-shape site (and no padded site
     dilutes it) becomes a context-sensitive [Pass] slot instead of a
     joined constant state. *)
  let arity_slots =
    List.fold_left (fun m (s, _) -> max m (Array.length s)) 0 !ret_sites
  in
  let matching, mismatched =
    List.partition (fun (s, _) -> Array.length s = arity_slots) !ret_sites
  in
  (* a rep list collapses to [Pass i] when every site's object set is
     exactly parameter [i]'s object, and to a joined state otherwise *)
  let collapse reps =
    let pass =
      match reps with
      | (objs0, _) :: _ -> (
          match objs0 with
          | [ o ] -> (
              match is_param fn o with
              | Some i
                when List.for_all (fun (objs, _) -> objs = [ o ]) reps ->
                  Some i
              | _ -> None)
          | _ -> None)
      | [] -> None
    in
    match pass with
    | Some i -> Summary.Pass i
    | None ->
        Summary.St
          (List.fold_left
             (fun acc (_, st) -> Lattice.join acc st)
             Lattice.Bot reps)
  in
  let ret_whole = collapse (List.map snd !ret_sites) in
  let ret_slots =
    Array.init arity_slots (fun j ->
        let reps = List.map (fun (s, _) -> s.(j)) matching in
        match (collapse reps, mismatched) with
        | (Summary.Pass _ as p), [] -> p
        | _, _ ->
            (* pad mismatching sites with their whole-state so an
               unknown-shaped site (a first-iteration recursive tail call)
               weakens every slot instead of erasing the shape *)
            let st =
              List.fold_left
                (fun acc (_, st) -> Lattice.join acc st)
                Lattice.Bot reps
            in
            Summary.St
              (List.fold_left
                 (fun acc (_, (_, w)) -> Lattice.join acc w)
                 st mismatched))
  in
  let exit_facts = ins.(fn.Cfg.fn_exit) in
  let param_exit =
    Array.init arity (fun i ->
        match exit_facts with
        | Some facts -> facts.(fn.Cfg.fn_param_objs.(i)).Lattice.st
        | None -> Lattice.Raw)
  in
  (* an unreached exit (or a Bot param on every return path) means the
     callee imposes nothing on the argument *)
  let param_exit =
    Array.map (fun st -> if st = Lattice.Bot then Lattice.Raw else st) param_exit
  in
  {
    Summary.s_name = fn.Cfg.fn_name;
    s_arity = arity;
    s_param_exit = param_exit;
    s_retires = retires;
    s_ret_slots = ret_slots;
    s_ret_whole = ret_whole;
    s_blocks = !blocks;
    s_enters_crit = fn.Cfg.fn_crit;
    s_quiescent = fn.Cfg.fn_quiescent <> [];
  }
