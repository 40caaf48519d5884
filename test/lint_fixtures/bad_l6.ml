(* Fixture: L6 one domain. Each line is one case, compiled alone under lib/'s flags. *)
let spawn f = Domain.spawn f
let via_stdlib f = Stdlib.Domain.spawn f
