(** Mutation operators for the coverage campaign.

    {!mutate} perturbs a corpus entry into a new scenario plus a script
    {e prefix}; the campaign replays the prefix with
    {!Dr_engine.Explore.scripted_then_random} and improvises the suffix, so
    each mutant walks a schedule neighbourhood of a known-interesting run.

    The operators: [Truncate] (random prefix), [Splice] (base prefix +
    donor suffix), [Point] (rewrite one choice), [Crash_shift] (different
    crash descriptor, same schedule), [Attack_swap] (different attack name —
    the schedule shape changes, so only half the script is kept), [Reseed]
    (fresh instance seed, half the script). Deterministic given the Prng. *)

type op = Truncate | Splice | Point | Crash_shift | Attack_swap | Reseed

val mutate :
  prng:Dr_engine.Prng.t ->
  attacks:string list ->
  crashes:Dr_adversary.Crash_plan.descriptor list ->
  donor:Corpus.entry option ->
  Corpus.entry ->
  Repro.scenario * int list
(** Pick an operator with [prng] and apply it. [attacks] and [crashes] are
    the pools [Attack_swap] / [Crash_shift] draw replacements from; [donor]
    feeds [Splice]. Returns the mutated scenario and the script prefix to
    replay. *)
