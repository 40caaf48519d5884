(** Tail bounds used by the randomized protocols' analyses.

    Claim 5 and Lemma 3.8 bound the probability that some segment is picked
    by fewer than ρ honest peers. The experiment harness reports these
    predicted failure probabilities next to the measured failure rates, so
    the comparison in EXPERIMENTS.md is like-for-like. *)

val binomial_pmf : trials:int -> p:float -> int -> float
(** (for tests) Exact binomial probability mass (computed in log space). *)

val binomial_tail_below : trials:int -> p:float -> threshold:int -> float
(** (for tests) P[Bin(trials, p) < threshold]; {!coverage_failure} is built
    on it. *)

val coverage_failure : honest:int -> segments:int -> rho:int -> float
(** Union bound on the probability that any of [segments] segments is picked
    by fewer than [rho] of [honest] uniform pickers — the protocols' w.h.p.
    failure budget. Clamped to 1. *)
