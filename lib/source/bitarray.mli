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

val blit_to_bytes : src:t -> pos:int -> len:int -> Bytes.t -> unit
(** [blit_to_bytes ~src ~pos ~len b] copies bits [pos .. pos+len-1] of
    [src] into [b] from bit 0, packed the way this module packs them: bit
    [r] is bit [r land 7] of byte [r lsr 3]. Bits of [b] from [len] on are
    left as they were. Raises [Invalid_argument] on a range outside [src]
    or a [b] shorter than [(len + 7) / 8] bytes. *)

val init_bytes : int -> (Bytes.t -> unit) -> t
(** [init_bytes len fill] calls [fill] once on a zeroed buffer of
    [(len + 7) / 8] bytes and returns what it wrote as a [len]-bit array
    (the layout of {!blit_to_bytes}), padding cleared. The array owns the
    buffer; [fill] must not keep it. *)

val append : t -> t -> t

val first_diff : t -> t -> int option
(** First index where the two arrays differ (the decision tree's "separating
    index"), or [None] if equal. Arrays must have equal length. *)

val count_ones : t -> int

val flip : t -> int -> t
(** Copy with one bit flipped (used by lower-bound adversaries). *)

val lognot : t -> t
(** Copy with every bit flipped; the padding past [length] stays zero. *)
