(** 4-ary min-heap of [int] values keyed by [(time, sequence)]: the
    simulator's event queue, whose values are the slots of its
    pending-event pool. Ties on time are broken by insertion order, which
    keeps executions deterministic.

    Struct-of-arrays (times in a float array, sequence numbers and values
    in int arrays), so no move goes through the write barrier. Times cross
    the module boundary only through one-slot float cells, so none is
    boxed even under [-opaque]. Once capacity is reached, [push] and
    [pop_min] allocate nothing. *)

type t

val create : unit -> t

val push : t -> time:float array -> int -> unit
(** [push h ~time v] schedules [v] at [time.(0)]. O(log n). *)

val pop_min : t -> time:float array -> int
(** Remove the earliest entry, write its time into [time.(0)] and return
    its value. Raises [Invalid_argument] when empty. *)

val is_empty : t -> bool
