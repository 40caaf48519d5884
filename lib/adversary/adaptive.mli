(** Adaptive Byzantine corruption policies: choose what to corrupt online
    from observed traffic instead of from a fixed pre-run catalog.

    A faulty peer running an adaptive plan first {e receives} — so the
    corruption it emits depends on which honest report the schedule happened
    to deliver first, putting the choice in the arbiter's (and therefore the
    model checker's) hands. The two plans mirror the [alter_path] and
    [limited_broadcast] behaviours of the Bracha reliable-broadcast
    testbeds:

    - {!Echo_corrupt} rebroadcasts the first observed report with one bit
      flipped — a near-miss forgery of whatever the network actually
      carries, not of a segment fixed in advance;
    - {!Split_brain} sends that same corrupted echo to only the lower half
      of the peer ids, so part of the network sees a forgery the rest never
      hears about.

    The protocol modules ([Byz_2cycle], [Byz_multicycle]) dispatch on the
    plan; this module owns the policy parameters so every protocol corrupts
    identically. Both plans are registered in the {!Dr_core.Registry}
    attack catalogs. *)

type plan = Echo_corrupt | Split_brain

val corrupt_index : rank:int -> len:int -> int
(** Which bit of an observed [len]-bit payload attacker number [rank]
    (its position among the faulty ids) flips — rank-dependent so a
    coalition's forgeries are distinct decision-tree leaves.
    Raises [Invalid_argument] on an empty payload. *)

val split_targets : k:int -> me:int -> int list
(** The {!Split_brain} audience: the lower half of the id space
    (⌈k/2⌉ peers), minus the attacker itself. *)
