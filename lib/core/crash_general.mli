(** Algorithm 2: deterministic asynchronous Download tolerating t < k crashes
    (Theorem 2.13).

    Runs in phases of three stages. Each peer keeps an assignment of every
    still-unknown bit to a peer responsible for querying it. Per phase it
    (1) queries the bits assigned to itself and {e pulls} the rest — one
    explicit request per peer, answered once the responder has finished its
    own stage 1; (2) waits for replies from k−t peers (more risks deadlock)
    and then asks everyone about the peers it did not hear from; (3) collects
    k−t answers — the missing peers' bits, or "me neither" — and re-assigns
    every bit that is still unknown by a deterministic common rule. Unknown
    bits shrink by a factor β per phase; once at most ⌈n/k⌉ remain the peer
    queries them directly, floods its full array and terminates (which
    rescues any peer still waiting, Claim 2).

    Q = O(n/(γk)) for any β < 1 — optimal up to the 1/γ factor, which the
    paper shows necessary. [~fast_path:true] (the default) applies the
    Theorem 2.13 modification: a peer stops waiting for third-party reports
    about a missing peer once that peer's own slow reply arrives, removing a
    t-factor from T under bandwidth-limited latencies.

    Deviations from the paper's pseudo-code, documented in DESIGN.md: pull
    requests carry explicit bit indices (the paper leaves the request
    encoding implicit), and the common re-assignment rule is a deterministic
    hash of (bit, phase) rather than "evenly", because after two rounds of
    re-assignment the surviving index sets are stride-periodic and any
    affine rule would collapse them onto one peer. *)

val name : string  (** The registry name, [Spec.bounds.protocol]. *)

val core :
  ?fast_path:bool ->
  ?monitor:(peer:int -> phase:int -> assign:int array -> know:bool array -> unit) ->
  unit ->
  (module Transport.CORE)
(** The transport-generic protocol core (see {!Transport.CORE}); the
    packaged name is ["crash-general"], or ["crash-general-nofp"] with
    [~fast_path:false] (the fast path is switchable for the ablation bench).
    [monitor] is an observation hook fired by every peer at the start of
    each phase with copies of its assignment map and knowledge vector — the
    test suite uses it to check Claims 1 and 4 of the paper's analysis on
    live executions. *)

val phases_upper_bound : k:int -> t:int -> int
(** (for tests) The r* cap on the number of phases: ⌈log k / log (1/β)⌉ + 2,
    the point by which at most ⌈n/k⌉ bits can remain unknown. *)
