(* Fixture: L3 direct stdout. Each line is one case, compiled alone under lib/'s flags. *)
let shout s = print_endline s
let report n = Printf.printf "n=%d\n" n
let moan s = prerr_string s
