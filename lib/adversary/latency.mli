(** Adversarial latency policies.

    In the asynchronous model the adversary assigns every message a finite
    delay. A policy is a pure-looking function of (link, size);
    randomized policies draw from their own {!Dr_engine.Prng} stream so the
    rest of the execution stays reproducible. Delays are normalized: honest
    "slow" traffic takes up to 1 time unit, so measured T is in units of the
    maximum latency, as in the paper.

    A policy fills the delays of one send effect's destinations in one
    call; {!Dr_engine.Sim.latency} states the shape, which destinations it
    is asked for and in what order, and what a negative or non-finite delay
    does. *)

type fn = Dr_engine.Sim.latency
(** The shape of [Dr_engine.Sim.config]'s [latency] field. *)

val per_message : (src:int -> dst:int -> size_bits:int -> float) -> fn
(** [per_message f] asks [f] for each destination in order and stops after
    the first delay that is negative or not finite, the one the engine
    fails the send on: [f] is called exactly once per send the engine
    attempts, as if each message drew its own delay. The way to write a
    policy that depends on the destination. *)

val unit_delay : fn
(** Every message takes exactly 1 — the synchronous-like schedule used for
    the Table 1 prior-work rows. *)

val targeted : slow:(int -> bool) -> delay:float -> fn
(** Messages {e from} designated peers take [delay] (a long but finite
    stall, e.g. past every honest termination time); all others take 1.
    This is the "delay the peers of D until v terminates" move of the
    lower-bound constructions. *)

val rushing : fast:(int -> bool) -> eps:float -> fn
(** Messages from [fast] peers (the Byzantine coalition) arrive after [eps],
    all honest messages after 1: the classic rushing adversary. *)

val jittered : Dr_engine.Prng.t -> fn
(** Uniform in [(0, 1]] — a benign asynchronous schedule: one
    [Prng.float g 1.] per destination, in order ({!Dr_engine.Prng.fill_floats}),
    a draw of [0.] taken as [1e-9]. It allocates nothing. *)

val size_proportional : per_bit:float -> floor:float -> fn
(** [floor + per_bit·size]: models bandwidth so that packetization (message
    bound B) shows up in T. *)
