(** Stdlib.Printf, with the process's stdout and stderr under alert l3. *)

include module type of struct
  include Stdlib.Printf
end

val printf : ('a, out_channel, unit) format -> 'a [@@alert l3 "stdout; take a formatter"]
val eprintf : ('a, out_channel, unit) format -> 'a [@@alert l3 "stderr; take a formatter"]
