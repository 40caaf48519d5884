(** The mutable-state inventory: a syntactic census of module-level mutable
    values and mutable type declarations. The census is what the
    domain-sharding refactor partitions; the R1-R2 rules in {!Race_rules}
    enforce discipline over it. *)

type kind =
  | Ref
  | Hashtbl_t
  | Queue_t
  | Stack_t
  | Buffer_t
  | Array_t
  | Bytes_t
  | Mutable_record
  | Atomic_t
  | Mutex_t

val kind_name : kind -> string

val guarded : kind -> bool
(** Atomic/Mutex-bearing state: already domain-safe by construction. *)

type sort = Value | Type

val sort_name : sort -> string

type item = {
  unit_name : string;
  path : string;
  modpath : string list;  (** nested module path inside the unit *)
  ident : string;
  sort : sort;
  kind : kind;
  line : int;
  col : int;
  escaping : bool;  (** exported through the .mli (or no .mli exists) *)
}

val key : item -> string
(** ["Metrics.t"], ["Net_transport.Mailbox.t"], ["Bitarray.popcount_byte"] —
    the name zone declarations bind to. *)

val compare_item : item -> item -> int
val of_unit : Symbols.unit_info -> item list
