(** The mutable-state census, read off every unit's typed tree: module-level
    mutable values and mutable type declarations. The R1-R2 rules in
    {!Race_rules} enforce discipline over it. *)

type kind =
  | Ref | Hashtbl_t | Queue_t | Stack_t | Buffer_t | Array_t | Bytes_t | Mutable_record | Atomic_t
  | Mutex_t

val kind_name : kind -> string

val guarded : kind -> bool
(** Atomic/Mutex-bearing state: already domain-safe by construction. *)

type sort = Value | Type

val sort_name : sort -> string
val same_sort : sort -> sort -> bool

type item = {
  unit_name : string; path : string; modpath : string list; ident : string;
  sort : sort; kind : kind; line : int; col : int;
  escaping : bool;  (** in the unit's .mli, or the unit has none *)
}

val key : item -> string
(** ["Metrics.t"], ["Wire.Crc32.table"]: the name a zone declaration binds to. *)

type unit_info = {
  path : string;  (** the source file its .cmt records *)
  name : string;  (** "Metrics" for lib/engine/metrics.ml *)
  str : Typedtree.structure;
  parts : Path.t -> string list;  (** a path in the unit, resolved: ["Wire"; "Crc32"; "table"] *)
}

val load : string list -> unit_info list * item list
(** The units whose .cmt files are under the roots, and their census sorted
    by key. Raises {!Driver.Error} on an unreadable .cmt, a
    unit that did not type-check, or two units with one name. *)
