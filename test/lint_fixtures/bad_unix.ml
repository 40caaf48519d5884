(* Fixture: the wall clock through Unix. Only lib/net links unix, so this
   fails in a core or engine library. *)
let now () = Unix.gettimeofday ()
