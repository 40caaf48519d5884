(* Prints in lib/ race on one channel: under lib/'s flags the first fails
   with alert l3; the second is waived on the identifier and compiles. *)
let hello () = Printf.printf "hello\n"
let bye () = (print_endline [@alert "-l3"]) "bye"
