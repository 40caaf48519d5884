(** Stdlib.Hashtbl, with representation hashing under alert l1_lib and the
    generic [create] under alert l2: a generic table hashes and compares its
    keys polymorphically, so lib/ builds its tables with [Hashtbl.Make]
    over a monomorphic [equal] and [hash] ([Dr_engine.Int_table],
    [Dr_lint.String_table]). *)

include module type of struct
  include Stdlib.Hashtbl
end

val create : int -> ('a, 'b) t
[@@alert l2 "polymorphic hash and compare; use a Hashtbl.Make instance"]
(** No [?random]: a randomized table iterates in a seed-dependent order. *)

val hash : 'a -> int [@@alert l1_lib "representation-sensitive; derive keys"]
val seeded_hash : int -> 'a -> int [@@alert l1_lib "representation-sensitive; derive keys"]
val hash_param : int -> int -> 'a -> int [@@alert l1_lib "representation-sensitive; derive keys"]
val randomize : unit -> unit [@@alert l1_lib "tables would iterate in a seed-dependent order"]
