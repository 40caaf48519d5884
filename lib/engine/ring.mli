(** Growable FIFO ring buffer.

    The simulator's per-peer mailbox. Same FIFO semantics as [Queue.t], but
    backed by a circular array: [push]/[pop] allocate nothing at steady state
    (a [Queue] allocates a cons cell per element), and capacity doubles when
    full, amortized O(1). *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Enqueue at the tail. *)

val pop : 'a t -> 'a
(** Dequeue from the head. Raises [Invalid_argument] when empty. *)

val is_empty : 'a t -> bool
