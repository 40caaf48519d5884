(** Theorem 3.1 as an executable construction: for β ≥ 1/2, any deterministic
    Download protocol that leaves even one bit unqueried can be made to
    output wrongly.

    The construction follows the appendix proof exactly.

    - Execution E₁ ("[ξ_F]"): input all zeros, the f peers of F crash before
      sending anything. The protocol must terminate (else it is F-vulnerable,
      already a failure); pick an honest victim v and a bit i it never
      queried.
    - Execution E₂ ("[ξ'_F]"): real input = zeros with bit i flipped. The
      adversary corrupts C = V∖F∖{v} (legal because |C| ≤ t once β ≥ 1/2) and
      has them run the honest protocol against a {e simulated} all-zeros
      source, while every message from the honest-but-slow F is delayed past
      v's E₁ termination time.

    From v's seat the two executions are identical — same deliveries, same
    query answers — so v terminates with the E₁ output and is wrong at bit i.
    The returned record carries the machine-checked evidence: v's message
    views in both executions, the verdicts, and the hidden bit. *)

type evidence = {
  victim : int;
  hidden_bit : int;
  corrupted : int list;  (** C = V∖F∖{v}: Byzantine simulators in E₂ *)
  e1 : Dr_core.Problem.report;
  e1_victim_queries : int;  (** < n, or the construction cannot start *)
  victim_fooled : bool;  (** v's E₂ output is wrong — the theorem's claim *)
  views_identical : bool;
      (** v received exactly the same (time, sender, message) sequence in
          both executions: the indistinguishability argument, checked *)
}

type runner = ?opts:Dr_core.Exec.opts -> Dr_core.Problem.instance -> Dr_core.Problem.report
(** Any deterministic protocol exposed in the library's standard shape. *)

val demonstrate :
  run:runner ->
  ?victim:int ->
  ?f_set:int list ->
  ?seed:int64 ->
  ?b:int ->
  k:int ->
  n:int ->
  unit ->
  (evidence, string) result
(** Builds both executions against the given protocol. Defaults:
    [victim = 0], [F] = the last ⌊k/2⌋ peers. Returns [Error] if the
    protocol queries everything (naive — the lower bound is then tight) or
    fails to terminate in E₁. *)
