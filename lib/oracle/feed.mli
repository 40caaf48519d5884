(** Off-chain data sources for the Oracle Data Delivery application
    (Section 4).

    A feed network holds m numeric data sources, each storing the same [d]
    cells (e.g. asset prices). Honest sources agree up to a bounded jitter;
    Byzantine sources store arbitrary out-of-range values. Sources are
    {e static}: querying the same cell twice gives the same answer — the
    restrictive assumption the paper states for its Download-based
    construction (dynamic data is left open there, and so it is here). *)

type t

val make :
  sources:int ->
  faulty:int list ->
  cells:int ->
  ?base:(int -> int) ->
  ?jitter:int ->
  seed:int64 ->
  unit ->
  t
(** Honest source values are [base cell ± jitter] (deterministic per
    (source, cell) from the seed); Byzantine sources hold values far outside
    the honest range. Defaults: [base c = 1000 + 10·c], [jitter = 2]. *)

val cells : t -> int

val value : t -> source:int -> cell:int -> int
(** The (static) stored value; query counting is not done here but by the
    ODC processes. *)

val honest_range : t -> cell:int -> int * int
(** [(lo, hi)] over honest sources — the ODD correctness window. *)

val in_honest_range : t -> cell:int -> int -> bool

val value_bits : int
(** Width of one cell (bits) when a source array is downloaded as a bit
    string through {!Word_download}. *)
