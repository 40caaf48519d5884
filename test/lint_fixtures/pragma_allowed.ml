(* Fixture: waivers. The first print is waived on the identifier and
   compiles; the identical print below it fails under lib/'s flags. *)
let ok s = (print_endline [@alert "-l3"]) s
let bad s = print_endline s
(* dr-race: allow R1 — fixture exercises the escape hatch *)
let waived = ref 0
let unwaived = ref 0
