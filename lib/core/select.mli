(** Regime-based protocol selection (the paper's case analysis as code).

    Given an instance's fault model and resilience, picks the protocol the
    paper would: balanced when nothing fails; Algorithm 1 or 2 under
    crashes; committees (deterministic) or segment sampling (randomized) for
    a Byzantine minority; and — per Theorems 3.1/3.2 — nothing better than
    naive once the Byzantine peers reach half. *)

type preference = Deterministic | Randomized

val for_instance : ?prefer:preference -> Problem.instance -> Registry.entry
(** The first entry that {!Registry.admits} the instance, in the order of
    preference above, or the order's last entry if none does.
    [prefer] breaks the deterministic/randomized tie for β < 1/2 Byzantine
    instances (default [Randomized], the asymptotically better choice). *)
