(** The multi-cycle randomized Byzantine Download protocol (Theorem 3.12).

    Cycle 1 is the 2-cycle protocol's sampling step over s₁ segments (s₁ a
    power of two). In every later cycle r the segments double in size
    (s_r = s₁/2^(r−1)); each peer picks an r-segment uniformly, waits until
    it has heard k−t cycle-(r−1) reports and both (r−1)-children of its pick
    have a ρ_(r−1)-frequent string, resolves the two children with decision
    trees, broadcasts their concatenation, and moves on. After 1 + log₂ s₁
    cycles the segment is the whole input; every peer outputs what it
    determined, unreported unless s₁ = 1 (no later cycle reads it).

    Compared to the 2-cycle protocol a peer resolves only the {e two}
    children of its own pick per cycle instead of every segment at once, so
    its decision-tree spend is proportional to the reports that happen to
    fall on its picks — the expectation argument behind the paper's expected
    query bound Õ(n/(γk)). Correct w.h.p. for β < 1/2. Message size grows to
    Θ(n): the largest report is cycle R−1's, n/2 + 64 bits. *)

val name : string  (** The registry name, [Spec.bounds.protocol]. *)

type attack = Byz_2cycle.attack =
  | Silent
  | Near_miss
  | Consistent_lie
  | Equivocate
  | Flood of int
  | Adaptive of Dr_adversary.Adaptive.plan
      (** receive first, then echo the observed report (same cycle and
          segment) with one bit flipped — see {!Dr_adversary.Adaptive} *)
  | Mirror  (** faulty peers run the honest protocol *)
(** The {!Byz_2cycle} attack catalog, applied in every cycle: a scripted
    attack forges on each cycle's segmentation in turn
    ({!Byz_2cycle.forge}), an adaptive one echoes one observed report per
    cycle ({!Byz_2cycle.echo}). *)

val core : ?attack:attack -> ?segments:int -> ?rho:int -> unit -> (module Transport.CORE)
(** The transport-generic protocol core (see {!Transport.CORE}) with the
    attack and plan overrides baked in. [segments] overrides s₁ (rounded
    down to a power of two); [rho] overrides the cycle-1 frequency threshold
    (later cycles double it as the segment count halves). Defaults:
    [attack = Near_miss], s₁ and ρ from the same case analysis as the
    2-cycle protocol. *)

val plan : k:int -> n:int -> t:int -> int * int
(** [(s₁, cycles)]: the initial segment count (a power of two) and the
    total number of cycles 1 + log₂ s₁. *)
