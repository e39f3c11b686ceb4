(* A SplitMix-style generator over OCaml's 63-bit ints: the benchmark's
   own input generator, so the same --seed yields the same inputs whatever
   the program's RNG does. *)

type t = { mutable s : int }

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let make seed = { s = mix (seed + 0x2545F4914F6CDD1D) }

(* An independent stream per (seed, round, worker). *)
let derive seed a b = make (mix (mix (seed + a) + (b * 0x1e3779b97f4a7c15)))

let next t =
  t.s <- t.s + 0x1e3779b97f4a7c15;
  mix t.s land max_int

let below t n = next t mod n

(* First [n] entries of a seeded shuffle of [0, keys). *)
let distinct_keys t ~keys n =
  let a = Array.init keys Fun.id in
  for i = keys - 1 downto 1 do
    let j = below t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.sub a 0 n
