(** The 2-cycle randomized Byzantine Download protocol (Theorem 3.7).

    Cycle 1: each peer picks one of [s] segments uniformly at random, queries
    it fully and broadcasts the resulting string. Cycle 2: each peer waits
    until it has heard from k−t distinct peers {e and} every segment has a
    ρ-frequent string (ρ reports from distinct peers); it then resolves every
    segment by building a decision tree over its ρ-frequent candidates and
    querying the separating indices.

    The segment count follows the paper's three-case analysis with
    ρ = ⌈h/(2s)⌉ for h = k−2t (the guaranteed honest peers among any k−t
    heard): Case 1/2 takes s as large as the Chernoff premise
    s ≤ h/(3·ln k) allows (capped at n); Case 3 — when that leaves s = 1 —
    degenerates to the naive protocol, matching the paper's "query all bits"
    fallback. Correct w.h.p. for β < 1/2;
    Q = n/s + O(k) = Õ(n/(γk) + k).

    The message size is set by the protocol itself at Θ(n/s) (the paper's
    assumption for this protocol); the instance's B bound is not used to
    packetize. *)

val name : string  (** The registry name, [Spec.bounds.protocol]. *)

type attack =
  | Silent  (** faulty peers send nothing (coverage attack) *)
  | Near_miss
      (** faulty peers report a real segment with one bit flipped —
          maximizes decision-tree work *)
  | Consistent_lie
      (** all faulty peers report the same forged string for one segment,
          creating a ρ-frequent wrong candidate *)
  | Equivocate  (** a different forged string to every receiver — filtered
                    out by the ρ-frequency threshold when ρ ≥ 2 *)
  | Flood of int
      (** [Flood g]: the coalition splits into [g] groups, each agreeing on a
          distinct forgery of segment 0 — each forgery becomes ρ-frequent
          (for ρ ≤ t/g) and the segment-0 decision tree pays [g] extra
          queries: the worst case of the query analysis *)
  | Adaptive of Dr_adversary.Adaptive.plan
      (** choose the corruption online from observed traffic: receive first,
          then echo the observed report with one bit flipped — to everyone
          ({!Dr_adversary.Adaptive.Echo_corrupt}) or to only half the peers
          ({!Dr_adversary.Adaptive.Split_brain}) *)
  | Mirror
      (** faulty peers execute the honest protocol faithfully; the deviation
          comes entirely from the simulated source the lower-bound adversary
          feeds them via [query_override] *)

type send = int option * int * Dr_source.Bitarray.t
(** A forged report of segment [seg]: to [Some dst], or [None] = everyone. *)

val forge :
  attack ->
  Problem.instance ->
  me:int ->
  prng:Dr_engine.Prng.t ->
  query:(pos:int -> len:int -> Dr_source.Bitarray.t) ->
  Dr_source.Segment.spec ->
  send list
(** Faulty peer [me]'s scripted attack on one segmentation: its sends in
    order, after the reads and draws they need. Empty for [Silent],
    [Adaptive] and [Mirror]. byz-multicycle forges once per cycle. *)

val echo :
  Dr_adversary.Adaptive.plan ->
  Problem.instance ->
  me:int ->
  seg:int ->
  Dr_source.Bitarray.t ->
  send list
(** The [Adaptive] attack's reply to one observed report: it with one
    rank-dependent bit flipped, to everyone or to [me]'s split targets. *)

val core : ?attack:attack -> ?segments:int -> ?rho:int -> unit -> (module Transport.CORE)
(** The transport-generic protocol core (see {!Transport.CORE}) with the
    attack and plan overrides baked in. Defaults: [attack = Near_miss];
    [segments]/[rho] per the case analysis (overridable for the ρ-ablation
    bench). *)

val plan : k:int -> n:int -> t:int -> int * int
(** [(s, rho)] the case analysis would choose — exposed for tests and for
    the experiment harness to report which regime an instance falls in. *)
