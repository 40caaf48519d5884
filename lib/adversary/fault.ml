type t = { k : int; faulty : bool array; faulty_ids : int list; t_count : int }

type selection =
  | None_faulty
  | First of int
  | Last of int
  | Spread of int
  | Random of int * Dr_engine.Prng.t
  | Explicit of int list

let of_ids ~k ids =
  let faulty = Array.make k false in
  List.iter
    (fun i ->
      if i < 0 || i >= k then invalid_arg "Fault.choose: peer id out of range";
      faulty.(i) <- true)
    ids;
  let faulty_ids =
    Array.to_list (Array.of_seq (Seq.filter (fun i -> faulty.(i)) (Seq.init k Fun.id)))
  in
  { k; faulty; faulty_ids; t_count = List.length faulty_ids }

let choose ~k selection =
  if k <= 0 then invalid_arg "Fault.choose: k must be positive";
  let need t = if t < 0 || t > k then invalid_arg "Fault.choose: bad fault count" in
  match selection with
  | None_faulty -> of_ids ~k []
  | First t ->
    need t;
    of_ids ~k (List.init t Fun.id)
  | Last t ->
    need t;
    of_ids ~k (List.init t (fun i -> k - 1 - i))
  | Spread t ->
    need t;
    if t = 0 then of_ids ~k []
    else of_ids ~k (List.init t (fun i -> i * k / t))
  | Random (t, prng) ->
    need t;
    let ids = Array.init k Fun.id in
    Dr_engine.Prng.shuffle prng ids;
    of_ids ~k (Array.to_list (Array.sub ids 0 t))
  | Explicit ids -> of_ids ~k ids

let is_faulty t i = t.faulty.(i)
let is_honest t i = not t.faulty.(i)
let honest_count t = t.k - t.t_count

let beta t = float_of_int t.t_count /. float_of_int t.k
let gamma t = 1. -. beta t
