(** Stdlib, with {!Bans} in place of its own names, and its polymorphic
    comparisons under alert [l2]: lib/ compares through
    {!Mono_compare}, and [Stdlib.compare] must not get round it. *)

include module type of struct
  include Stdlib
end

include module type of Bans

external ( = ) : 'a -> 'a -> bool = "%equal" [@@alert l2 "polymorphic compare; see Mono_compare"]

external ( <> ) : 'a -> 'a -> bool = "%notequal"
[@@alert l2 "polymorphic compare; see Mono_compare"]

external ( < ) : 'a -> 'a -> bool = "%lessthan" [@@alert l2 "polymorphic compare; see Mono_compare"]

external ( > ) : 'a -> 'a -> bool = "%greaterthan"
[@@alert l2 "polymorphic compare; see Mono_compare"]

external ( <= ) : 'a -> 'a -> bool = "%lessequal"
[@@alert l2 "polymorphic compare; see Mono_compare"]

external ( >= ) : 'a -> 'a -> bool = "%greaterequal"
[@@alert l2 "polymorphic compare; see Mono_compare"]

external compare : 'a -> 'a -> int = "%compare" [@@alert l2 "polymorphic compare; see Mono_compare"]

val min : 'a -> 'a -> 'a [@@alert l2 "polymorphic compare; see Mono_compare"]
val max : 'a -> 'a -> 'a [@@alert l2 "polymorphic compare; see Mono_compare"]
