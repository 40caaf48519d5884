(* Planted R2: an init-only cell, its zone declared in fixtures.zones,
   written after initialization. Writes at module init and in
   init_-prefixed setup functions are fine; tweak is the violation the
   rule must flag. *)
let limit = ref 0
let init_limit n = limit := n
let tweak n = limit := n
let current () = !limit
