(* Fixture: L5 fiber safety. Each line is one case, compiled alone under lib/core's flags. *)
let bail () = exit 1
let stall ic = input_line ic
