(** Hash tables keyed by [int], compared with [Int.equal] and hashed as
    themselves: for keys that are already mixed (the 30-bit coverage
    signatures of {!Explore}) or dense small encodings (crash-general's
    per-phase [(phase, peer)] keys). Nothing hashes or compares a key
    polymorphically. *)

include Hashtbl.S with type key = int
