(** Stdlib.Hashtbl, with representation hashing under alert l1_lib. *)

include module type of struct
  include Stdlib.Hashtbl
end

val create : int -> ('a, 'b) t
(** No [?random]: a randomized table iterates in a seed-dependent order. *)

val hash : 'a -> int [@@alert l1_lib "representation-sensitive; derive keys"]
val seeded_hash : int -> 'a -> int [@@alert l1_lib "representation-sensitive; derive keys"]
val hash_param : int -> int -> 'a -> int [@@alert l1_lib "representation-sensitive; derive keys"]
val randomize : unit -> unit [@@alert l1_lib "tables would iterate in a seed-dependent order"]
