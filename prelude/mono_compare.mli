(** The comparisons of lib/: Stdlib's names, at type [int] only.

    Every library under lib/ opens this module after {!Dr_prelude}
    ([prelude/lib.flags]), so a bare [=], [<>], [<], [>], [<=], [>=],
    [compare], [min] or [max] on anything but an [int] is a type error.
    Polymorphic comparison orders floats, lists and variants by their
    representation, and a summary sorted that way can change order between
    runs that should agree (rule L2, DESIGN.md "Static invariants").
    Compare other types with their module's own function: [String.equal],
    [Char.equal], [List.is_empty], [Option.is_none], [Float.compare], or a
    [match] on a variant. [Stdlib.compare] and the other qualified names
    carry alert [l2] ([stdlib_bans.mli]), an error in lib/.

    The operators are the compiler's primitives, so an [int] comparison
    compiles to the same instructions as Stdlib's at type [int]. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( >= ) : int -> int -> bool = "%greaterequal"
external compare : int -> int -> int = "%compare"

val min : int -> int -> int
val max : int -> int -> int

(** IEEE float comparisons, written [Fl.(a < b)]: Stdlib's operators at
    type [float], so NaN is unordered and unequal to itself, as it was
    under polymorphic comparison. Not [Float.equal], [Float.min] or
    [Float.max], which order NaN. The module holds only these six, so a
    local open shadows no other name ([Array], for one, stays
    Stdlib's). *)
module Fl : sig
  external ( = ) : float -> float -> bool = "%equal"
  external ( <> ) : float -> float -> bool = "%notequal"
  external ( < ) : float -> float -> bool = "%lessthan"
  external ( > ) : float -> float -> bool = "%greaterthan"
  external ( <= ) : float -> float -> bool = "%lessequal"
  external ( >= ) : float -> float -> bool = "%greaterequal"
end
