(** Summary statistics over repeated runs.

    The randomized protocols are analysed "w.h.p." and "in expectation"; the
    experiment harness runs them over many seeds and reports these
    aggregates. *)

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
}

val of_floats : float list -> t
(** Raises [Invalid_argument] on an empty list. *)

val of_ints : int list -> t

val percentile : float array -> float -> float
(** (for tests) [percentile sorted q] with [q] in [0,1]; linear
    interpolation. The array must be sorted ascending. *)
