(* Planted R2: an init-only cell of a nested module (fixtures.zones),
   written after initialization from inside that module. *)
module Crc = struct
  let table = Array.make 4 0
  let poison () = table.(0) <- 0
end
