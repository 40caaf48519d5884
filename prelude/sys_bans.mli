(** Stdlib.Sys, with the wall clock under alert l1_lib. *)

include module type of struct
  include Stdlib.Sys
end

val time : unit -> float [@@alert l1_lib "the wall clock; simulated time is the event loop's"]
