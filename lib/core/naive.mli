(** The naive Download protocol: every nonfaulty peer queries all [n] bits.

    Q = n, M = 0, T = 0 (plus query latency). Trivially correct in {e any}
    fault model at {e any} resilience — and, by Theorem 3.1, the only
    deterministic option once half the peers can be Byzantine. It is the
    baseline every other protocol is compared against. *)

val name : string  (** The registry name, [Spec.bounds.protocol]. *)

val core : unit -> (module Transport.CORE)
(** The transport-generic protocol core (see {!Transport.CORE}). *)
