(* An engine-shared cell (fixtures.zones). Same-unit access is allowed;
   outsider.ml pokes it cross-module and must be flagged. *)
let hits = ref 0
let bump () = hits := !hits + 1
