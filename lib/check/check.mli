(** The [dr_check] model checker: a coverage-guided schedule campaign with an
    invariant oracle and counterexample shrinking.

    A {!target} is anything checkable — normally a {!Dr_core.Registry} entry
    via {!of_registry}, or a hand-built record (the tests check a
    deliberately broken protocol stub this way). {!campaign} searches for
    invariant violations in three moves:

    + seed a corpus with {!Dr_engine.Explore.random} schedules, round-robin
      over the target's instance pool, its attack catalog and a fixed set of
      crash plans;
    + spend the rest of the budget on mutants of the schedules that lit up
      new execution signatures ({!Coverage}, {!Corpus}, {!Mutate});
    + every failure is re-recorded as a choice script, minimized with
      {!Shrink}, and packaged as a replayable {!Repro.t}.

    Everything is deterministic given [seed]; {!replay} re-executes a repro
    and verifies that the {e same} invariant fails at the {e same} event
    index. *)

type target = {
  name : string;
  attacks : string list;  (** attack vocabulary accepted by [run] *)
  model : Dr_core.Problem.fault_model;
  spec : Dr_core.Spec.bounds option;
      (** enables the spec-bound invariant (see {!Invariant.check} for the
          randomized/resilience gating) *)
  pool : (int * int * int) list;
      (** admissible [(k, n, t)] instance parameters the campaign draws from;
          must be small, because every schedule re-executes the protocol
          from the start *)
  run :
    ?observer:(Dr_engine.Sim.obs -> unit) ->
    attack:string ->
    crash:Dr_adversary.Crash_plan.t ->
    arbiter:Dr_engine.Sim.arbiter ->
    Dr_core.Problem.instance ->
    Dr_core.Problem.report;
      (** [observer] streams one {!Dr_engine.Sim.obs} per fired event — the
          campaign's coverage probe. Targets that ignore it still check, but
          contribute no coverage. *)
}

val of_registry : ?pool:(int * int * int) list -> Dr_core.Registry.entry -> target
(** Check a registry protocol. The default pool crosses k ∈ 2..5 with small
    n and every fault count in the entry's regime ([spec.resilience]). *)

(** {2 Running one scenario} *)

type checked = {
  report : Dr_core.Problem.report;
  script : int list;  (** the full recorded schedule of this execution *)
  violation : Invariant.violation option;
}

val run_scenario :
  ?observer:(Dr_engine.Sim.obs -> unit) ->
  target ->
  Repro.scenario ->
  arbiter:Dr_engine.Sim.arbiter ->
  checked
(** (for tests) Build the instance from the scenario, run under the given
    arbiter with the scenario's crash plan applied to the instance's faulty
    set, record the schedule and consult the {!Invariant} oracle.
    [observer] is passed through to the target (coverage probing). Under
    the Byzantine model the faulty set is the attackers, so the plan
    crashes them: a legal but weaker adversary. *)

val shrink : target -> Repro.scenario -> Invariant.violation -> script:int list -> Repro.t
(** (for tests) Minimize a failing run: first the crash plan (drop it, then
    lower its parameter), then the choice script via {!Shrink.minimize} —
    each step keeps the {e same} invariant failing. The result replays
    bit-identically through {!Dr_engine.Explore.scripted}. *)

type replay_result =
  | Reproduced of Invariant.violation
      (** same invariant, same event index as recorded *)
  | Diverged of string  (** a violation, but not the recorded one *)
  | Vanished  (** no violation — the bug is gone (or the build changed) *)

val replay : ?targets:target list -> Repro.t -> replay_result

(** {2 The coverage-guided campaign}

    [dr_check]'s driver keeps a {!Coverage} map of hashed execution
    signatures and a {!Corpus} of the scripts that lit up new ones, and
    spends most of its budget mutating those ({!Mutate}) — replaying each
    mutant's script prefix exactly and improvising the suffix. Violations
    are shrunk and deduplicated by (invariant, scenario). Deterministic
    given [seed]: coverage map, corpus and failure list are all
    byte-reproducible. *)

type campaign = {
  target_name : string;
  budget : int;  (** requested executions *)
  seed : int;
  executed : int;  (** executions actually performed *)
  seed_runs : int;  (** phase-1 runs (round-robin pool × attack × crash) *)
  mutated_runs : int;  (** phase-2 runs (corpus mutants) *)
  new_coverage_runs : int;  (** runs that lit at least one new signature *)
  coverage : Coverage.t;
  corpus : Corpus.t;
  failures : Repro.t list;  (** shrunk, deduplicated by (invariant, scenario) *)
}

val campaign : ?max_failures:int -> ?bucket:int -> budget:int -> seed:int -> target -> campaign
(** [campaign ~budget ~seed target] spends [max 1 (budget / 4)] executions
    seeding the corpus (round-robin over every pool × attack × crash-plan
    combination) and the rest mutating it. [bucket] is the signature
    round-bucket width (see {!Dr_engine.Explore.probe}); [max_failures]
    (default 5) caps collected counterexamples. *)

val campaign_stats_json : campaign -> string
(** Schema ["dr-campaign/1"]: run counts, coverage totals, corpus size and
    one summary object per shrunk violation. Deterministic given the
    campaign (no timestamps, no host state) — suitable as a golden. *)

val pp_campaign : Format.formatter -> campaign -> unit
