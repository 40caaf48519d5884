type fn = src:int -> dst:int -> size_bits:int -> float

let unit_delay ~src:_ ~dst:_ ~size_bits:_ = 1.

let targeted ~slow ~delay ~src ~dst:_ ~size_bits:_ = if slow src then delay else 1.

let rushing ~fast ~eps ~src ~dst:_ ~size_bits:_ = if fast src then eps else 1.

let jittered prng ~src:_ ~dst:_ ~size_bits:_ =
  let x = Dr_engine.Prng.float prng 1. in
  if Fl.(x <= 0.) then 1e-9 else x

let size_proportional ~per_bit ~floor ~src:_ ~dst:_ ~size_bits =
  floor +. (per_bit *. float_of_int size_bits)
