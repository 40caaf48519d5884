(** Deterministic, splittable pseudo-random generator (xoshiro256starstar).

    Every source of randomness in the simulator is drawn from one of these
    generators, seeded from a single master seed, so that a whole execution —
    scheduling, latencies, protocol coin flips — is reproducible bit-for-bit
    from [(seed, configuration)] alone. The standard library [Random] is never
    used. *)

type t

val create : int64 -> t
(** [create seed] builds a generator from a 64-bit seed (expanded through
    splitmix64, so low-entropy seeds such as [1L] are fine). *)

val split : t -> t
(** [split g] derives an independent generator; [g] advances. Used to give
    each peer its own stream so that protocol randomness does not depend on
    scheduling order. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
