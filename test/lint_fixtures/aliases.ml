(* Fixture: banned names reached through an alias, an open or Stdlib. Each
   line is one case, and each fails under lib/core's flags. *)
module DS = Dr_source.Data_source let sneak src i = DS.query src ~peer:0 i
open Dr_source.Data_source let sneak_fn src = query_fn src
module H = Hashtbl let key v = H.hash v
module P = Printf let report n = P.printf "n=%d\n" n
let roll () = Stdlib.Random.int 6
module T = Hashtbl let table () : (int, unit) T.t = T.create 8
