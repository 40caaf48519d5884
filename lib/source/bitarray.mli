(** Packed bit arrays.

    The input array [X] of the DR model, the peers' output arrays, and the
    bit strings exchanged for segments are all values of this type. Unused
    padding bits are kept at zero, so structural equality and hashing work on
    the content. *)

type t

val create : int -> t
(** [create n] is an all-zeros array of [n] bits. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit

val copy : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val random : Dr_engine.Prng.t -> int -> t
(** [random g len] is [len] uniform bits, one {!Dr_engine.Prng.bool} draw
    per bit: bit [r] is the [r]-th draw, and [g] ends exactly [len] draws
    further on ({!Dr_engine.Prng.fill_bits} into a fresh array). *)

val of_string : string -> t
(** (for tests) From a ['0']/['1'] string. Raises [Invalid_argument] on
    other chars. *)

val to_string : t -> string

val init : int -> (int -> bool) -> t
(** [init len f] has bit [r] set iff [f r]. [f] is called exactly once per
    index, in ascending order. *)

val sub : t -> pos:int -> len:int -> t
(** Extract a contiguous slice (the paper's segment string [X[j]]). *)

val blit : src:t -> dst:t -> pos:int -> unit
(** Write [src] into [dst] starting at bit [pos]. *)

val sub_bytes : t -> pos:int -> len:int -> Bytes.t
(** [sub_bytes t ~pos ~len] is the packed bytes of [sub t ~pos ~len], a
    fresh buffer of [(len + 7) / 8] bytes: bit [r] is bit [r land 7] of
    byte [r lsr 3], and the padding is zero. *)

val of_packed : int -> Bytes.t -> t
(** [of_packed len b] is the [len]-bit array whose packed bytes are [b]
    itself ({!sub_bytes}'s layout), not a copy: a write to either shows in
    the other. Raises [Invalid_argument] unless [b] has exactly
    [(len + 7) / 8] bytes and its padding bits are zero. *)

val append : t -> t -> t

val first_diff : t -> t -> int option
(** First index where the two arrays differ (the decision tree's "separating
    index"), or [None] if equal. Arrays must have equal length. *)

val count_ones : t -> int

val flip : t -> int -> t
(** Copy with one bit flipped (used by lower-bound adversaries). *)

val lognot : t -> t
(** Copy with every bit flipped; the padding past [length] stays zero. *)
