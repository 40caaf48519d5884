(** The simulator's event queue: [int] values keyed by
    [(time, insertion order)], exact for every non-NaN time with no
    monotonicity assumed: a push may be earlier than the last pop. Values
    index nothing, so they need not be distinct or non-negative; each is
    held beside its time.

    Two levels: only the window being popped is ordered, as a run sorted
    by insertion when it has at most 32 entries, merged with a
    struct-of-arrays 4-ary heap that holds a larger window, the window's
    overflow and every push below it. Later times wait in a far array, in
    push order; when the run and the heap run dry past the last window, a
    stable counting sort spreads it over contiguous windows of about four
    entries, and a push into a later window of the live epoch joins that
    window's overflow. A far array of at most 64 entries, or
    whose finite times do not spread, goes whole into the heap.

    Memory: two words per entry of the far array's capacity and two in
    the windows', a quarter word each for a window's end and overflow
    tail, three words per overflow entry and per heap slot. Capacity grows
    in [push] by chunks of 1024 entries (doubling up to the first), never
    copied, so growth leaves little garbage. Times cross the module
    boundary only in float arrays, a one-slot cell or a batch, so none is
    boxed under [-opaque]. [pop_min] allocates nothing once the heap has
    held the largest window, or the largest whole far array, it will
    see. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drop every entry, keeping the arrays, without allocating: a cleared
    queue pops exactly as a fresh one and grows only past the largest size
    it has held. *)

val push : t -> time:float array -> int -> unit
(** [push h ~time v] schedules [v] at [time.(0)]. Raises [Invalid_argument]
    on a NaN time, leaving [h] unchanged. *)

val push_many : t -> times:float array -> int array -> int -> unit
(** [push_many h ~times values n] schedules [values.(i)] at [times.(i)] for
    [i = 0 .. n - 1]: exactly the pushes of those entries one at a time, in
    index order, in one call. Raises [Invalid_argument], leaving [h]
    unchanged, on a NaN time or on an [n] that is negative or exceeds
    either array's length. *)

val pop_min : t -> time:float array -> int
(** Remove the earliest entry, write its time into [time.(0)] and return
    its value. Raises [Invalid_argument] when empty. *)

val is_empty : t -> bool
