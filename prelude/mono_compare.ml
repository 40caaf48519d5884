external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( >= ) : int -> int -> bool = "%greaterequal"
external compare : int -> int -> int = "%compare"

let min a b = if a <= b then a else b
let max a b = if a >= b then a else b

module Fl = struct
  external ( = ) : float -> float -> bool = "%equal"
  external ( <> ) : float -> float -> bool = "%notequal"
  external ( < ) : float -> float -> bool = "%lessthan"
  external ( > ) : float -> float -> bool = "%greaterthan"
  external ( <= ) : float -> float -> bool = "%lessequal"
  external ( >= ) : float -> float -> bool = "%greaterequal"
end
