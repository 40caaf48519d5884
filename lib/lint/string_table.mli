(** Hash tables keyed by [string], compared with [String.equal] and hashed
    by [String.hash]: unit names, census keys and zone keys. Nothing hashes
    or compares a key polymorphically. *)

include Hashtbl.S with type key = string
