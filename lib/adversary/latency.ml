type fn = Dr_engine.Sim.latency

(* Stops after the first delay the engine rejects, so [f] is called once
   per send the engine attempts. *)
let per_message f ~src ~size_bits ~dsts n delays =
  let rec go i =
    if i < n then begin
      let d = f ~src ~dst:dsts.(i) ~size_bits in
      delays.(i) <- d;
      if Fl.(d >= 0. && d < infinity) then go (i + 1)
    end
  in
  go 0

let unit_delay ~src:_ ~size_bits:_ ~dsts:_ n delays = Array.fill delays 0 n 1.

let targeted ~slow ~delay ~src ~size_bits:_ ~dsts:_ n delays =
  Array.fill delays 0 n (if slow src then delay else 1.)

let rushing ~fast ~eps ~src ~size_bits:_ ~dsts:_ n delays =
  Array.fill delays 0 n (if fast src then eps else 1.)

let jittered prng ~src:_ ~size_bits:_ ~dsts:_ n delays =
  Dr_engine.Prng.fill_floats prng delays n;
  for i = 0 to n - 1 do
    if Fl.(delays.(i) <= 0.) then delays.(i) <- 1e-9
  done

let size_proportional ~per_bit ~floor ~src:_ ~size_bits ~dsts:_ n delays =
  Array.fill delays 0 n (floor +. (per_bit *. float_of_int size_bits))
