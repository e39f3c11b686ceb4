(* The traversal-step probe: what one protected step costs each scheme,
   read as a ratio to EBR inside one process. One domain runs random
   [get]s on a 512-node HHSList (about 256 steps each) under NR, EBR, HP++,
   PEBR and RC in interleaved slices — every round gives each scheme one
   slice, in the same order — so a change in the host's speed moves every
   scheme of a round alike and the round's ratio to EBR cancels it. EBR's
   step stores nothing, so the ratio is the price of protection per step.
   HP is absent: it cannot protect HHSList's traversal (paper §2.3).

   Wired as [bench/main.exe exp step]; [--duration] is each scheme's total
   measured time, split over the rounds. Rows flow into [--json]. *)

module Mem = Smr_core.Mem
module Results = Bench_harness.Results

let schemes = [ "NR"; "EBR"; "HP++"; "PEBR"; "RC" ]
let size = 512
let rounds = 15

(* One prefilled list (keys 0, 2, ..., 1022) and its reader. [slice keys
   budget] runs gets in batches of 64 over [keys] until [budget] ns have
   passed and returns (gets, ns). *)
type cell = {
  name : string;
  slice : int array -> int -> int * int;
  close : unit -> unit;
}

let cell name (module S : Smr.Smr_intf.S) =
  let module L = Smr_ds.Hhslist.Make (S) in
  let t = S.create () in
  let h = S.register t in
  let l = L.make_local h in
  let m = L.create t in
  for i = 0 to size - 1 do
    ignore (L.insert m l (2 * i) i)
  done;
  let slice keys budget =
    let mask = Array.length keys - 1 in
    let t0 = Hotpath.now_ns () in
    let rec go n =
      for i = n to n + 63 do
        ignore (Sys.opaque_identity (L.get m l keys.(i land mask)))
      done;
      let dt = Hotpath.now_ns () - t0 in
      if dt >= budget then (n + 64, dt) else go (n + 64)
    in
    go 0
  in
  let close () =
    L.clear_local l;
    S.unregister h;
    S.shutdown t
  in
  { name; slice; close }

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let run ~duration =
  Printf.printf
    "step: HHSList get over %d nodes, 1 domain, %d interleaved rounds, \
     uaf-detector=%b\n\
     %!"
    size rounds (Mem.checking ());
  let cells =
    List.map
      (fun name ->
        match Schemes.find name with
        | Some s -> cell name s
        | None -> invalid_arg ("step: unknown scheme " ^ name))
      schemes
  in
  let rng = Smr_core.Rng.create ~seed:42 in
  let keys = Array.init 4096 (fun _ -> Smr_core.Rng.below rng (2 * size)) in
  let budget = int_of_float (duration /. float_of_int rounds *. 1e9) in
  (* One warm-up slice each, unrecorded. *)
  List.iter (fun c -> ignore (c.slice keys (budget / 4))) cells;
  let per_get = List.map (fun c -> (c, Array.make rounds 0.)) cells in
  let gets = Array.make (List.length cells) 0
  and ns = Array.make (List.length cells) 0 in
  for r = 0 to rounds - 1 do
    List.iteri
      (fun i (c, a) ->
        let n, t = c.slice keys budget in
        a.(r) <- float_of_int t /. float_of_int n;
        gets.(i) <- gets.(i) + n;
        ns.(i) <- ns.(i) + t)
      per_get
  done;
  List.iter (fun c -> c.close ()) cells;
  let ebr = snd (List.find (fun (c, _) -> c.name = "EBR") per_get) in
  List.iteri
    (fun i (c, a) ->
      let ratios = Array.mapi (fun r x -> x /. ebr.(r)) a in
      let lo = Array.fold_left min infinity ratios
      and hi = Array.fold_left max neg_infinity ratios in
      let per = median a and ratio = median ratios in
      Printf.printf
        "  %-5s %7.0f ns/get  ratio to EBR %.2f (rounds %.2f-%.2f)\n%!"
        c.name per ratio lo hi;
      Results.add ~ds:"HHSList" ~scheme:c.name ~threads:1
        ~key_range:(2 * size) ~workload:"step"
        ~extra:
          [
            ("ns_per_get", Service.Json.Float per);
            ("ratio_to_ebr", Service.Json.Float ratio);
            ("ratio_min", Service.Json.Float lo);
            ("ratio_max", Service.Json.Float hi);
          ]
        (Hotpath.result_of ~ops:gets.(i) ~wall:(float_of_int ns.(i) /. 1e9) ()))
    per_get
