(** The coverage map behind [dr_check]'s campaign.

    Keys are the 30-bit signatures of {!Dr_engine.Explore.probe}
    (protocol-phase × event-type × round-bucket); values count how many runs
    lit the signature ({!note} is fed each run's {e distinct} hits, so a
    count of 3 means three executions reached that region, not three raw
    events). Deterministic: every read-out is a count, so the same runs give
    the same numbers. *)

type t

val create : unit -> t

val note : t -> int list -> int
(** [note t hits] folds one run's distinct signatures into the map and
    returns how many were {e new} — the campaign's corpus-admission
    criterion. *)

val distinct : t -> int
(** Distinct signatures seen. *)

val hits : t -> int
(** Total run-hits across all signatures. *)
