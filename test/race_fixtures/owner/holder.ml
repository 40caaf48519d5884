(* Per-domain state with an owner subtree (fixtures.zones): only
   race_fixtures/owner may touch the cell or construct the type.
   intruder.ml (outside the subtree) violates both. *)
let slots = Array.make 4 0
let set i v = slots.(i) <- v

type t = { mutable n : int }

let make () = { n = 0 }
let step t = t.n <- t.n + 1
