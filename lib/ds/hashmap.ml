(** Chaining hash table (Michael, SPAA 2002): a fixed array of lock-free
    ordered-list buckets. As in the paper's evaluation, buckets are
    Harris–Michael lists when the scheme cannot protect optimistic traversal
    (HP) and Harris lists with wait-free get otherwise. *)

module Make (S : Smr.Smr_intf.S) = struct
  module HM = Hmlist.Make (S)
  module HHS = Hhslist.Make (S)

  type 'v buckets =
    | Pessimistic of 'v HM.t array
    | Optimistic of 'v HHS.t array

  type 'v t = { scheme : S.t; buckets : 'v buckets; mask : int }

  type local = { hm : HM.local; hhs : HHS.local }

  type scheme = S.t
  type handle = S.handle

  let unsupported = None

  let default_buckets = 512

  (* Fibonacci hashing spreads consecutive integer keys across buckets. *)
  let hash_key mask key = (key * 0x2545F4914F6CDD1D) lsr 13 land mask

  let create_sized ~buckets scheme =
    if buckets < 1 then invalid_arg "Hashmap.create_sized";
    let n =
      (* round up to a power of two *)
      let rec up n = if n >= buckets then n else up (n * 2) in
      up 1
    in
    let buckets =
      if S.supports_optimistic then
        Optimistic (Array.init n (fun _ -> HHS.create scheme))
      else Pessimistic (Array.init n (fun _ -> HM.create scheme))
    in
    { scheme; buckets; mask = n - 1 }

  let create scheme = create_sized ~buckets:default_buckets scheme

  let scheme t = t.scheme
  let stats t = S.stats t.scheme

  let make_local handle =
    { hm = HM.make_local handle; hhs = HHS.make_local handle }

  let clear_local l =
    HM.clear_local l.hm;
    HHS.clear_local l.hhs

  let get t l key =
    let i = hash_key t.mask key in
    match t.buckets with
    | Pessimistic b -> HM.get b.(i) l.hm key
    | Optimistic b -> HHS.get b.(i) l.hhs key

  let insert t l key value =
    let i = hash_key t.mask key in
    match t.buckets with
    | Pessimistic b -> HM.insert b.(i) l.hm key value
    | Optimistic b -> HHS.insert b.(i) l.hhs key value

  let remove t l key =
    let i = hash_key t.mask key in
    match t.buckets with
    | Pessimistic b -> HM.remove b.(i) l.hm key
    | Optimistic b -> HHS.remove b.(i) l.hhs key

  (* Quiescent helpers. *)

  let to_list t =
    let all =
      match t.buckets with
      | Pessimistic b -> Array.to_list b |> List.concat_map HM.to_list
      | Optimistic b -> Array.to_list b |> List.concat_map HHS.to_list
    in
    List.sort compare all

  let size t = List.length (to_list t)

  let assert_reachable_not_freed t =
    match t.buckets with
    | Pessimistic b -> Array.iter HM.assert_reachable_not_freed b
    | Optimistic b -> Array.iter HHS.assert_reachable_not_freed b
end
