(** Algorithm 1: deterministic asynchronous Download with at most one crash.

    Two phases of three stages each (Theorem 2.3). In phase 1 every peer
    queries its own 1/k share and broadcasts it, waits for shares from k−1
    peers (waiting for the last one risks deadlock), asks everyone about the
    single peer it did not hear from, and collects k−1 answers — either that
    peer's bits or "me neither". By the overlap lemma all still-lacking peers
    agree on the same missing peer, so in phase 2 its share is re-queried
    evenly by the k−1 remaining peers, while peers that learned everything
    broadcast the full array ("completion mode").

    Q = ⌈n/k⌉ + ⌈n/(k(k−1))⌉ + O(1); tolerates exactly t ≤ 1 crash. *)

val name : string  (** The registry name, [Spec.bounds.protocol]. *)

val core : unit -> (module Transport.CORE)
(** The transport-generic protocol core (see {!Transport.CORE}). *)
