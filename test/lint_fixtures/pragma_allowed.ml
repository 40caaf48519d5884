(* Fixture: waivers. The first print is waived on the identifier and
   compiles; the identical print below it fails under lib/'s flags. *)
let ok s = (print_endline [@alert "-l3"]) s
let bad s = print_endline s
(* dr-lint: allow L2 — fixture exercises the escape hatch *)
let ok_max xs = List.fold_left max 0 xs
let bad_max xs = List.fold_left max 0 xs
