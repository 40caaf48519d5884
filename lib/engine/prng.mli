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

val for_peer : int64 -> int -> t
(** [for_peer seed i] is peer [i]'s stream as [Sim.run] assigns it: the
    [(i+1)]-th split of [create seed]. The net runtime draws each process's
    coin flips and fault schedule from it, so they match the simulator's. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. It
    is [Int64.unsigned_rem (next64 g) (Int64.of_int bound)], computed with
    one division and without allocating. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val fill_floats : t -> float array -> int -> unit
(** [fill_floats g a n] writes into [a.(0) .. a.(n - 1)], in order, the
    values of [n] calls of [float g 1.], bit for bit, and leaves [g] as
    they would; it allocates nothing. Raises [Invalid_argument] on a
    negative [n] or an [a] shorter than [n]. *)

val bool : t -> bool
(** Bit 0 of {!next64}. *)

val fill_bits : t -> Bytes.t -> int -> unit
(** [fill_bits g buf len] writes [len] draws into bytes [0 .. (len + 7) / 8 - 1]
    of [buf], packed LSB-first: bit [r land 7] of byte [r lsr 3] is what the
    [r]-th {!bool} [g] would return, and the bits of the last byte past [len]
    are zero. [g] ends exactly [len] draws further on, as after [len] calls of
    {!bool}. Raises [Invalid_argument] on a negative [len] or a [buf] shorter
    than [(len + 7) / 8] bytes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
