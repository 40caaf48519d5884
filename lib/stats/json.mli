(** The minimal JSON subset (objects, arrays, strings, numbers) behind the
    program's machine-readable artifacts: the [dr_check] repro files, corpus
    entries and campaign statistics. One small reader and escaper, no
    external JSON dependency. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float

val parse : string -> t
(** Parse exactly one value, surrounded by optional whitespace. Raises
    [Failure] with a byte position on malformed input or on trailing bytes
    after the value. *)

val member : t -> string -> t option
(** Object field lookup; [None] on a non-object or missing key. *)

val str : t -> string -> string
(** Required string field. Raises [Failure] when absent or mistyped. *)

val num : t -> string -> float
(** Required number field. Raises [Failure] when absent or mistyped. *)

val escape : string -> string
(** Escape a string for embedding between double quotes. *)
