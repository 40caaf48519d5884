(** Delta-debugging minimizer for failing choice scripts.

    A counterexample found by the campaign is a choice script (see
    {!Dr_engine.Explore}): one arbiter decision per event. Most of its
    entries are irrelevant to the failure; this module removes and lowers
    them until the script is locally minimal.

    Every candidate transformation is validated by re-running the predicate —
    nothing is assumed equivalent, so the result provably still fails. *)

val minimize : ?max_tests:int -> fails:(int list -> bool) -> int list -> int list
(** [minimize ~fails script] returns a script [s] with [fails s = true] that
    is locally minimal: deleting any single element or decrementing any
    single choice makes the failure disappear. Deletion runs ddmin-style
    (chunks of halving size), then choices are lowered pointwise toward 0;
    the two passes repeat to a fixpoint.

    If [fails script] is already false, the script is returned unchanged
    (shrinking a passing run is a no-op). [max_tests] (default [20_000])
    bounds the number of predicate evaluations; when exhausted, the current
    — still failing — script is returned even if not yet minimal. *)
