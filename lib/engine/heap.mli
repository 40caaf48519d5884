(** 4-ary min-heap keyed by [(time, sequence)].

    The event queue of the simulator. Ties on time are broken by insertion
    order, which keeps executions deterministic: two events scheduled for the
    same instant are processed in the order they were scheduled.

    The representation is struct-of-arrays (times in a flat float array,
    sequence numbers and values in parallel arrays) and sits on the
    simulator's per-event hot path. Once capacity is reached, [pop_min]
    allocates nothing. [push] and [min_time] pass a [float] across the
    module boundary, so each boxes it (2 words) unless the compiler can
    inline across modules, which it cannot when the library is compiled
    with [-opaque]. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** Schedule a value at [time]. O(log n); at steady state the only
    allocation is the caller's boxed [time]. *)

val min_time : 'a t -> float
(** Time of the earliest event (boxed, see above). Raises
    [Invalid_argument] when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's value without allocating.
    Raises [Invalid_argument] when empty. *)

val is_empty : 'a t -> bool
