(* Fixture: L1 determinism. Each line is one case, compiled alone under lib/'s flags. *)
let roll () = Random.int 6
let stamp () = Sys.time ()
let key v = Hashtbl.hash v
let tbl () : (int, int) Hashtbl.t = Hashtbl.create ~random:true 16
