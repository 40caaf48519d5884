(* Planted R1: an escaping module-level table of a Hashtbl.Make instance
   with no zone declared anywhere. *)
module Name_table = Hashtbl.Make (String)

let names : int Name_table.t = Name_table.create 8
