(** Fault-set selection and the honest/faulty partition of an execution.

    The adversary fixes the set of (up to) [t = β·k] faulty peers before the
    execution. All protocol code and all summaries take the partition from
    here, so the honesty predicate is defined in exactly one place. *)

type t = private {
  k : int;
  faulty : bool array;  (** length [k] *)
  faulty_ids : int list;  (** ascending *)
  t_count : int;  (** [List.length faulty_ids] *)
}

type selection =
  | None_faulty
  | First of int  (** peers [0 .. t-1] *)
  | Last of int  (** peers [k-t .. k-1] *)
  | Spread of int  (** every ⌈k/t⌉-th peer — breaks contiguity assumptions *)
  | Random of int * Dr_engine.Prng.t
  | Explicit of int list

val choose : k:int -> selection -> t
(** Raises [Invalid_argument] if the requested count exceeds [k] or an
    explicit ID is out of range. *)

val is_faulty : t -> int -> bool
val is_honest : t -> int -> bool
val honest_count : t -> int
val beta : t -> float
(** Actual fault fraction [t/k]. *)

val gamma : t -> float
(** Honest fraction [1 - t/k]. *)
