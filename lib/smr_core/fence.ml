external register : unit -> int = "smr_fence_register"
external issue : unit -> unit = "smr_fence_heavy" [@@noalloc]

(* Registration is per process and must precede the first expedited
   fence; module initialisation runs before any domain can be spawned by
   code that links this library. *)
let () =
  match register () with
  | 0 -> ()
  | errno ->
      failwith
        (Printf.sprintf
           "Smr_core.Fence: membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) \
            failed (errno %d); the heavy fence needs Linux >= 4.14"
           errno)

let heavy stats =
  issue ();
  Stats.on_heavy_fence stats
