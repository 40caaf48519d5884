(* Planted R2: reaches into per-domain state owned by test/race_fixtures/owner
   from outside that subtree — a direct cell write and a constructor call. *)
let smash () = Holder.slots.(0) <- 9
let fresh () = Holder.make ()
