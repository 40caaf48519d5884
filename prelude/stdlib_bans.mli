(** Stdlib, with {!Bans} in place of its own names. *)

include module type of struct
  include Stdlib
end

include module type of Bans
