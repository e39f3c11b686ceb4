(* Log-linear latency histogram, single writer, mergeable. Kept in the
   benchmark rather than borrowed from lib/service so that a change to the
   program's own histogram cannot move the benchmark's yardstick. 32 linear
   sub-buckets per power of two bound the bucketing error at 1/32; reported
   percentiles interpolate inside the bucket, so they vary continuously
   between runs instead of snapping to bucket edges. *)

let sub = 5
let nsub = 1 lsl sub

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable max : int;
}

let create () = { counts = Array.make (60 * nsub) 0; n = 0; sum = 0; max = 0 }

let[@inline] index v =
  if v < nsub then v
  else begin
    let e = ref 0 and x = ref v in
    if !x lsr 32 <> 0 then (e := !e + 32; x := !x lsr 32);
    if !x lsr 16 <> 0 then (e := !e + 16; x := !x lsr 16);
    if !x lsr 8 <> 0 then (e := !e + 8; x := !x lsr 8);
    if !x lsr 4 <> 0 then (e := !e + 4; x := !x lsr 4);
    if !x lsr 2 <> 0 then (e := !e + 2; x := !x lsr 2);
    if !x lsr 1 <> 0 then incr e;
    let shift = !e - sub in
    ((shift + 1) lsl sub) + ((v lsr shift) land (nsub - 1))
  end

(* [lo, lo + width) is the range of values bucket [i] holds. *)
let bounds i =
  if i < nsub then (i, 1)
  else
    let shift = (i lsr sub) - 1 in
    ((nsub + (i land (nsub - 1))) lsl shift, 1 lsl shift)

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0;
  t.sum <- 0;
  t.max <- 0

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v > t.max then t.max <- v

let count t = t.n
let sum t = t.sum
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum + src.sum;
  if src.max > dst.max then dst.max <- src.max

let merge hs =
  let dst = create () in
  List.iter (merge_into ~dst) hs;
  dst

(* [p] in (0, 100]; 0 when empty. *)
let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let rank = Float.max 1.0 (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
    let rec walk i cum =
      let c = t.counts.(i) in
      if c > 0 && float_of_int (cum + c) >= rank then begin
        let lo, width = bounds i in
        let frac = (rank -. float_of_int cum -. 0.5) /. float_of_int c in
        Float.min (float_of_int t.max) (float_of_int lo +. (frac *. float_of_int width))
      end
      else walk (i + 1) (cum + c)
    in
    walk 0 0
  end
