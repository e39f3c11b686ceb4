(* The netkv workload: an in-process server (Net.Server) on a unix socket
   and one pipelined client connection driven from this file, not from
   Net.Openloop, so an edit to the program's load generator cannot move the
   numbers.

   The client keeps [window] requests in flight (a closed loop): each
   response releases the next request. By Little's law the mean latency is
   then [window] over the throughput, so the two metrics move together
   here. Open loops at a fixed rate were tried, Poisson at 20000 req/s,
   timed from the scheduled arrival or from the issue with 32 requests
   at most in flight. On the shared 2-vCPU VM it was built for, the host
   stalls a vCPU for milliseconds at a time, and an idle reactor pays a
   wake-up after each: p90 swung from 59 to 250 us between runs and p99
   from 0.5 to 10 ms. In a closed loop no backlog builds up behind a stall.
   With a window of 8 the server runs at about half of what 64 in flight
   reach, and per-round latencies vary least (NOTES.md). *)

(* The client, the reactor and the acceptor all run on one CPU. They take
   turns, using about one CPU between them, so they lose little by it. On
   two vCPUs each response otherwise wakes the client on the other vCPU,
   which has halted and must be scheduled again by the host: pinned, a
   request never waits for that. On the shared 2-vCPU VM the benchmark was
   built on this raised throughput per CPU-second by half, cut p50 from
   56-63 to 35-42 us, and leaves the run exposed to steal on one vCPU, not
   two (NOTES.md). *)
external pin_to_current_cpu : unit -> int = "perfbench_pin_to_current_cpu"

type config = {
  window : int; (* requests in flight *)
  keys : int;
  prefill : int;
  get_pct : int;
  put_pct : int; (* the rest are deletes *)
  reactors : int;
  shards : int;
  queue_bound : int;
}

let config =
  {
    window = 8;
    keys = 16_384;
    prefill = 8_192;
    get_pct = 80;
    put_pct = 10;
    reactors = 1;
    shards = 4;
    queue_bound = 1024;
  }

let now = Timed.now

type round = {
  setup_ns : int;
  elapsed_s : float; (* first request to last completion *)
  cpu_s : float; (* process CPU time over the same stretch *)
  sent : int;
  completed : int;
  retried : int;
  errors : int; (* error responses and undecodable frames *)
  wrong : int; (* a response that does not fit its request *)
  abandoned : int; (* no response by the end of the drain *)
  latency : Hist.t; (* completion - the moment the request was issued *)
  raw : Hist.t; (* completion - last request byte on the wire *)
  late : Hist.t; (* last request byte on the wire - issue *)
  expected_size : int;
  size : int; (* Kv.validate on the stopped server; -1 if it raised *)
  validate_error : string option;
  residue : int;
  garbage_peak : int;
  garbage_sum : int;
  garbage_samples : int;
  service : (Service.Service_stats.op * Service.Histogram.summary) list;
  trace : Obs.Trace.snapshot option;
}

let cpu_share r = r.cpu_s /. r.elapsed_s

type pending = { issued : int; mutable send : int; req : Net.Frame.request }

let socket_path () = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ())

(* A traced round records events for its first [trace_slice] seconds only.
   The server emits about 2 million events a second, SMR events included,
   into one ring of [trace_capacity] events per domain; a ring that wrapped
   would keep only the end of the round. The slice fits with room to spare,
   and the run warns when any event was lost. *)
let trace_slice = 0.15
let trace_capacity = 1 lsl 19

(* The client owns the loop, so it samples the garbage count every
   [sample_every] requests, as the in-process workers do. *)
let sample_every = 256

module Make (S : Smr.Smr_intf.S) = struct
  module Srv = Net.Server.Make (S)
  module Session = Net.Session
  module Frame = Net.Frame

  exception Broken of string

  let select_ fd ~write timeout =
    try ignore (Unix.select [ fd ] (if write then [ fd ] else []) [] timeout)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()

  let decode_all sess f =
    let rec go () =
      match Session.next_frame sess with
      | `Need_more -> ()
      | `Corrupt c -> raise (Broken (Net.Codec.corrupt_to_string c))
      | `Frame fr -> (
          match fr.Frame.payload with
          | Frame.Response r ->
              f fr.Frame.id r;
              go ()
          | Frame.Request _ -> raise (Broken "request frame from the server"))
    in
    go ()

  let read sess f =
    match Session.fill sess with
    | Session.Eof -> raise (Broken "server closed the connection")
    | Session.Blocked -> ()
    | Session.Data -> decode_all sess f

  (* Windowed PUTs of [prefill] distinct keys, each answered before the
     window moves past it; a Retry is resent. *)
  let prefill sess ~seed ~round =
    let keys =
      Prng.distinct_keys (Prng.derive seed round 0) ~keys:config.keys config.prefill
    in
    let next = ref 0 and acked = ref 0 and outstanding = ref 0 in
    let requeue = Queue.create () in
    while !acked < Array.length keys do
      while !outstanding < 256 && (!next < Array.length keys || not (Queue.is_empty requeue)) do
        let i =
          if Queue.is_empty requeue then (
            let i = !next in
            incr next;
            i)
          else Queue.pop requeue
        in
        incr outstanding;
        Session.send sess { Frame.id = i; payload = Frame.Request (Frame.Put (keys.(i), keys.(i))) }
      done;
      ignore (Session.flush sess);
      select_ sess.Session.fd ~write:(Session.out_backlog sess > 0) 0.05;
      read sess (fun id r ->
          decr outstanding;
          match r with
          | Frame.Done true -> incr acked
          | Frame.Retry -> Queue.push id requeue
          | _ -> raise (Broken "prefill PUT of a fresh key not acknowledged"))
    done

  let round ?(trace = false) ?(on_start = ignore) ?(on_stop = ignore) ~seed
      ~round ~window () =
    Gc.full_major ();
    let path = socket_path () in
    let t0 = now () in
    let srv =
      Srv.start ~reactors:config.reactors ~queue_bound:config.queue_bound
        ~shards:config.shards [ Net.Addr.Unix_sock path ]
    in
    let fd = Net.Addr.connect (Net.Addr.Unix_sock path) in
    Unix.set_nonblock fd;
    let sess = Session.create fd in
    let stats = S.stats (Srv.Kv.scheme (Srv.kv srv)) in
    let finish () =
      Srv.stop srv;
      Session.close sess
    in
    match prefill sess ~seed ~round with
    | exception e ->
        finish ();
        raise e
    | () ->
        let setup_ns = now () - t0 in
        let rng = Prng.derive seed round 1 in
        let pending : (int, pending) Hashtbl.t = Hashtbl.create 4096 in
        let latency = Hist.create () and raw = Hist.create () and late = Hist.create () in
        let sent = ref 0 and completed = ref 0 and retried = ref 0 in
        let errors = ref 0 and wrong = ref 0 in
        let puts = ref 0 and dels = ref 0 in
        let gsum = ref 0 and gn = ref 0 in
        let last_done = ref 0 in
        Session.set_on_wire sess (fun id ->
            (match Hashtbl.find_opt pending id with
            | Some p ->
                p.send <- now ();
                Hist.record late (p.send - p.issued)
            | None -> ());
            if Obs.Trace.enabled () then Obs.Trace.emit Obs.Trace.Req_send id 0 0);
        let on_response id resp =
          match Hashtbl.find_opt pending id with
          | None -> incr wrong (* an id never sent, or answered twice *)
          | Some p -> (
              Hashtbl.remove pending id;
              match resp with
              | Frame.Retry -> incr retried
              | Frame.Error _ -> incr errors
              | _ ->
                  let t = now () in
                  last_done := t;
                  incr completed;
                  if Obs.Trace.enabled () then
                    Obs.Trace.emit Obs.Trace.Req_done id
                      (Frame.opcode (Frame.Response resp)) 0;
                  Hist.record latency (t - p.issued);
                  Hist.record raw (t - p.send);
                  (match (p.req, resp) with
                  | Frame.Get k, Frame.Value v when v = k -> ()
                  | Frame.Get _, Frame.Not_found -> ()
                  | Frame.Put _, Frame.Done b -> if b then incr puts
                  | Frame.Delete _, Frame.Done b -> if b then incr dels
                  | _ -> incr wrong))
        in
        let request () =
          let r = Prng.below rng 100 and k = Prng.below rng config.keys in
          if r < config.get_pct then Frame.Get k
          else if r < config.get_pct + config.put_pct then Frame.Put (k, k)
          else Frame.Delete k
        in
        on_start ();
        if trace then Obs.Trace.enable ~capacity:trace_capacity ();
        let broken = ref None in
        let start = now () in
        let c0 = Closed.cpu_s () in
        let t_end = start + int_of_float (window *. 1e9) in
        let trace_end = start + int_of_float (trace_slice *. 1e9) in
        let id = ref 0 in
        let issue () =
          incr id;
          let req = request () in
          let t = now () in
          Hashtbl.replace pending !id { issued = t; send = t; req };
          Session.send sess { Frame.id = !id; payload = Frame.Request req };
          Session.note_wire sess !id;
          incr sent;
          if !sent land (sample_every - 1) = 0 then begin
            gsum := !gsum + Smr_core.Stats.unreclaimed stats;
            incr gn
          end
        in
        (try
           while now () < t_end || Hashtbl.length pending > 0 do
             if trace && Obs.Trace.recording () && now () > trace_end then Obs.Trace.disable ();
             if now () < t_end then
               while Hashtbl.length pending < config.window do
                 issue ()
               done;
             if Session.out_backlog sess > 0 then ignore (Session.flush sess);
             select_ fd ~write:(Session.out_backlog sess > 0) 0.01;
             read sess on_response;
             if now () > t_end + 5_000_000_000 then raise (Broken "no response for 5 s")
           done
         with Broken msg -> broken := Some msg);
        let elapsed_s = float_of_int (max !last_done t_end - start) /. 1e9 in
        let cpu_s = Closed.cpu_s () -. c0 in
        if trace then Obs.Trace.disable ();
        let garbage_peak = Smr_core.Stats.peak_unreclaimed stats in
        finish ();
        on_stop ();
        let trace_snap =
          if trace then begin
            let s = Obs.Trace.snapshot () in
            Obs.Trace.reset ();
            Some s
          end
          else None
        in
        let kv = Srv.kv srv in
        let size, validate_error =
          match Srv.Kv.validate kv with
          | n -> (n, None)
          | exception e -> (-1, Some (Printexc.to_string e))
        in
        let service = (Srv.snapshot srv ~elapsed:window).Service.Service_stats.per_op in
        {
          setup_ns;
          elapsed_s;
          cpu_s;
          sent = !sent;
          completed = !completed;
          retried = !retried;
          errors = (!errors + match !broken with Some _ -> 1 | None -> 0);
          wrong = !wrong;
          abandoned = Hashtbl.length pending;
          latency;
          raw;
          late;
          expected_size = config.prefill + !puts - !dels;
          size;
          validate_error =
            (match (validate_error, !broken) with
            | Some e, _ -> Some e
            | None, Some b -> Some ("client: " ^ b)
            | None, None -> None);
          residue = Srv.residue srv;
          garbage_peak;
          garbage_sum = !gsum;
          garbage_samples = !gn;
          service;
          trace = trace_snap;
        }
end
