(** The invariant oracle: the checkable property set of one execution.

    The paper's guarantees are universally quantified over schedules and
    adversary behaviours; the model checker searches for a schedule breaking
    one of these invariants:

    - {b agreement}: every nonfaulty peer that terminated output exactly [X];
    - {b termination}: no nonfaulty peer is blocked forever (deadlock) and
      the run did not hit the event limit;
    - {b spec-bound}: the measured query complexity Q respects the registry's
      {!Dr_core.Spec.bounds} — checked only for deterministic protocols
      inside their resilience regime (the randomized bounds hold w.h.p., so a
      single unlucky schedule is not a counterexample).

    The oracle runs post-hoc on a {!Dr_core.Problem.report}; [event] in a
    violation is the schedule length (events fired) of the checked execution,
    which deterministic replay reproduces exactly. *)

type t = Agreement | Termination | Spec_bound

val name : t -> string
(** ["agreement"] / ["termination"] / ["spec-bound"] — the vocabulary used in
    repro files. *)

type violation = {
  invariant : t;
  event : int;  (** schedule length at which the invariant was judged broken *)
  detail : string;  (** deterministic human-readable diagnosis *)
}

val check :
  ?spec:Dr_core.Spec.bounds ->
  inst:Dr_core.Problem.instance ->
  events:int ->
  Dr_core.Problem.report ->
  violation option
(** First violated invariant, in the order termination, agreement,
    spec-bound. A deadlock that blocks only {e faulty} peers is the
    adversary's business and violates nothing. *)

val pp_violation : Format.formatter -> violation -> unit
