(** Deterministic Byzantine Download for β < 1/2 (Theorem 3.4).

    The input is cut into blocks of at most B bits; block [j] is assigned a
    committee of [2t+1] peers chosen round-robin. Every committee member
    queries its block and broadcasts the value; every peer decides a block
    once [t+1] {e identical} values from distinct committee members arrive.
    Any t+1 matching values include an honest one, so decisions are correct;
    honest members alone eventually produce t+1 matching values, so the
    asynchronous adaptation (wait instead of one synchronous round) never
    blocks — Byzantine peers can only delay, not forge, a decision.

    Q = (2t+1)·⌈n/k⌉ + O(B): the deterministic price of Byzantine faults
    ([3]'s lower bound, matched here), a factor ≈ 2βk+1 over the ideal n/k.

    The committee size and threshold are exposed so that the lower-bound
    demonstration (Theorem 3.1) can run the protocol {e outside} its safe
    region β < 1/2 and exhibit the forced failure. *)

val name : string  (** The registry name, [Spec.bounds.protocol]. *)

type attack =
  | Honest_but_silent  (** faulty peers never send (pure omission) *)
  | Flip  (** members broadcast their block with every bit flipped *)
  | Equivocate  (** correct value to even peers, flipped to odd peers *)
  | Collude  (** all faulty members of a committee agree on one forged value —
                 the attack that breaks the protocol once t+1 ≤ t_actual *)
  | Mirror
      (** faulty peers execute the honest protocol faithfully; the deviation
          comes entirely from the simulated source the lower-bound adversary
          feeds them via [query_override] *)

val core :
  ?attack:attack -> ?committee_size:int -> ?threshold:int -> unit -> (module Transport.CORE)
(** The transport-generic protocol core (see {!Transport.CORE}) with the
    attack and committee overrides baked in. Defaults: [attack = Equivocate],
    [committee_size = 2t+1] (clamped to k), [threshold = t+1]. *)

val committee : k:int -> size:int -> int -> int list
(** (for tests) [committee ~k ~size j] is the member list of block [j]'s
    committee (round-robin, distinct peers). *)

val rank : k:int -> size:int -> int -> int -> int
(** (for tests) For [i] in [0, k) and [size] ≤ k, [i]'s index in
    [committee ~k ~size j] if [i] is there, else a value ≥ [size]. *)
