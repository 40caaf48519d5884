(** Stdlib.List, with its polymorphic-equality searches under alert l2:
    search at the element's own type instead, e.g.
    [List.exists (Int.equal x) xs], or [List.find_map] with
    [String.equal] on the key. *)

include module type of struct
  include Stdlib.List
end

val mem : 'a -> 'a list -> bool [@@alert l2 "polymorphic compare; see Mono_compare"]
val assoc : 'a -> ('a * 'b) list -> 'b [@@alert l2 "polymorphic compare; see Mono_compare"]

val assoc_opt : 'a -> ('a * 'b) list -> 'b option
[@@alert l2 "polymorphic compare; see Mono_compare"]

val mem_assoc : 'a -> ('a * 'b) list -> bool [@@alert l2 "polymorphic compare; see Mono_compare"]

val remove_assoc : 'a -> ('a * 'b) list -> ('a * 'b) list
[@@alert l2 "polymorphic compare; see Mono_compare"]
