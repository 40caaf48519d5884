(** The simulator's event queue: [int] values (its pending-event slots)
    keyed by [(time, insertion order)], exact for every non-NaN time with
    no monotonicity assumed: a push may be earlier than the last pop.

    Two levels: only the current time window is ordered, in a
    struct-of-arrays 4-ary heap. Later windows wait unsorted in FIFO lists
    and later times in a far list, spread over fresh windows of about four
    entries when the heap and the windows run dry; a far list of at most 64
    entries, or whose finite times do not spread, goes whole into the heap.

    Values are non-negative and distinct while pending: each value's time
    and list link sit at its index, two words per value up to the largest,
    plus two per window and a heap grown only to the largest window seen.
    Times cross the module boundary only in one-slot float cells, so none
    is boxed under [-opaque]. Arrays grow in [push]; [pop_min] allocates
    nothing once the heap has held the largest window it will see. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drop every entry, keeping the arrays: a cleared queue pops exactly as
    a fresh one and allocates only past the largest size it has held. *)

val push : t -> time:float array -> int -> unit
(** [push h ~time v] schedules [v] at [time.(0)]. Raises [Invalid_argument]
    on a NaN time, leaving [h] unchanged. *)

val pop_min : t -> time:float array -> int
(** Remove the earliest entry, write its time into [time.(0)] and return
    its value. Raises [Invalid_argument] when empty. *)

val is_empty : t -> bool
