(* Planted R1: escaping module-level mutable value with no zone declared
   anywhere. dr_race must demand a declaration for it. *)
let table : (string, int) Hashtbl.t = Hashtbl.create 16
let note k v = Hashtbl.replace table k v
