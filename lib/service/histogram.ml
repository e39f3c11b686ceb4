(* Bucket layout (HdrHistogram's): bucket 0 is [0, 2^sub_bits) at unit
   resolution — one slot per value. Every later bucket k >= 1 covers
   [2^(sub_bits+k-1), 2^(sub_bits+k)) with 2^(sub_bits-1) sub-buckets of
   width 2^k, so the index of a value v >= 2^sub_bits is found by shifting v
   right until it fits in [sub_half, sub_count). *)

type t = {
  sub_bits : int;
  sub_count : int; (* 1 lsl sub_bits *)
  sub_half : int; (* sub_count / 2 *)
  max_exp : int;
  counts : int array;
  mutable total : int;
  mutable max_v : int;
  mutable sum : float;
}

let create ?(sub_bits = 5) ?(max_exp = 40) () =
  if sub_bits < 1 || sub_bits > 16 then invalid_arg "Histogram.create: sub_bits";
  if max_exp <= sub_bits || max_exp > 61 then
    invalid_arg "Histogram.create: max_exp";
  let sub_count = 1 lsl sub_bits in
  {
    sub_bits;
    sub_count;
    sub_half = sub_count / 2;
    max_exp;
    (* exponent buckets 1 .. max_exp - sub_bits, each sub_half wide *)
    counts = Array.make (sub_count + ((max_exp - sub_bits) * (sub_count / 2))) 0;
    total = 0;
    max_v = 0;
    sum = 0.0;
  }

(* Index of the bucket containing [v] (v >= 0), clamped to the last one. *)
let index t v =
  if v < t.sub_count then v
  else begin
    (* k = floor(log2 v) - sub_bits + 1: shifts until v fits a half-bucket *)
    let k = ref 0 and x = ref v in
    while !x >= t.sub_count do
      incr k;
      x := !x lsr 1
    done;
    let i = t.sub_count + ((!k - 1) * t.sub_half) + (!x - t.sub_half) in
    min i (Array.length t.counts - 1)
  end

(* Highest value mapping to bucket [i] (inclusive upper bound). *)
let highest_equivalent t i =
  if i < t.sub_count then i
  else
    let k = ((i - t.sub_count) / t.sub_half) + 1 in
    let off = (i - t.sub_count) mod t.sub_half in
    ((t.sub_half + off) lsl k) + (1 lsl k) - 1

(* Lowest value mapping to bucket [i]. *)
let lowest_equivalent t i =
  if i < t.sub_count then i
  else
    let k = ((i - t.sub_count) / t.sub_half) + 1 in
    let off = (i - t.sub_count) mod t.sub_half in
    (t.sub_half + off) lsl k

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  if v > t.max_v then t.max_v <- v;
  t.sum <- t.sum +. float_of_int v

(* HdrHistogram's recordValueWithExpectedInterval: when a recorded value is
   larger than the expected sampling interval, the requests that *would*
   have been issued during the stall were never measured (coordinated
   omission) — backfill them at [v - interval], [v - 2*interval], ...

   The backfills form the arithmetic sequence [v - k*interval] for
   [k = 1 .. v/interval - 1], which can be millions of values when a
   deeply-backlogged request completes (a 19 s latency at a 4 µs expected
   interval is ~4.5M backfills — recording them one by one stalls the very
   load generator whose measurements this corrects). Instead, walk the
   buckets the sequence spans and count the k hitting each bucket's value
   range in closed form: O(buckets), independent of [v / interval]. *)
let record_corrected t ~interval v =
  let v = if v < 0 then 0 else v in
  record t v;
  if interval > 0 && v >= 2 * interval then begin
    let kmax = (v / interval) - 1 in
    let last = Array.length t.counts - 1 in
    for b = index t interval to index t v do
      let lo = lowest_equivalent t b in
      let hi =
        let h = highest_equivalent t b in
        (* the clamped last bucket also holds values past its nominal range *)
        if b = last && v > h then v else h
      in
      (* k with lo <= v - k*interval <= hi: ceil((v-hi)/i) .. floor((v-lo)/i);
         the max/min clamps absorb truncated division on the boundaries *)
      let k1 = max 1 ((v - hi + interval - 1) / interval) in
      let k2 = min kmax ((v - lo) / interval) in
      if k2 >= k1 then begin
        let n = k2 - k1 + 1 in
        t.counts.(b) <- t.counts.(b) + n;
        t.total <- t.total + n;
        (* sum of the n values v - k*interval, k in [k1, k2] *)
        t.sum <-
          t.sum
          +. (float_of_int n
              *. (float_of_int v
                 -. (float_of_int interval *. float_of_int (k1 + k2) /. 2.0)))
      end
    done
  end

let count t = t.total
let max_value t = t.max_v

let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total

let percentile t p =
  if t.total = 0 then 0
  else begin
    let target =
      let x = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
      if x < 1 then 1 else if x > t.total then t.total else x
    in
    let n = Array.length t.counts in
    let cum = ref 0 and i = ref 0 and res = ref t.max_v in
    (try
       while !i < n do
         cum := !cum + t.counts.(!i);
         if !cum >= target then begin
           (* the final bucket also holds clamped overflow values, whose
              only faithful upper bound is the tracked maximum *)
           res :=
             (if !i = n - 1 then t.max_v
              else min (highest_equivalent t !i) t.max_v);
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    !res
  end

let merge_into ~src ~dst =
  if src.sub_bits <> dst.sub_bits || src.max_exp <> dst.max_exp then
    invalid_arg "Histogram.merge_into: shape mismatch";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v;
  dst.sum <- dst.sum +. src.sum

let merge = function
  | [] -> create ()
  | first :: _ as all ->
      let dst = create ~sub_bits:first.sub_bits ~max_exp:first.max_exp () in
      List.iter (fun src -> merge_into ~src ~dst) all;
      dst

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.max_v <- 0;
  t.sum <- 0.0

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max : int;
}

let summary t =
  {
    count = t.total;
    mean = mean t;
    p50 = percentile t 50.0;
    p90 = percentile t 90.0;
    p99 = percentile t 99.0;
    p999 = percentile t 99.9;
    max = t.max_v;
  }

let pp_summary ~unit_name ~scale ppf s =
  let f v = float_of_int v /. scale in
  Format.fprintf ppf
    "n=%d mean=%.2f%s p50=%.2f%s p90=%.2f%s p99=%.2f%s p999=%.2f%s max=%.2f%s"
    s.count (s.mean /. scale) unit_name (f s.p50) unit_name (f s.p90) unit_name
    (f s.p99) unit_name (f s.p999) unit_name (f s.max) unit_name
