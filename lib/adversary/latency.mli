(** Adversarial latency policies.

    In the asynchronous model the adversary assigns every message a finite
    delay. A policy is a pure-looking function of (link, size);
    randomized policies draw from their own {!Dr_engine.Prng} stream so the
    rest of the execution stays reproducible. Delays are normalized: honest
    "slow" traffic takes up to 1 time unit, so measured T is in units of the
    maximum latency, as in the paper. *)

type fn = src:int -> dst:int -> size_bits:int -> float
(** The shape expected by [Dr_engine.Sim.Make]'s [latency] field. *)

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
(** Uniform in [(0, 1]] — a benign asynchronous schedule. *)

val size_proportional : per_bit:float -> floor:float -> fn
(** [floor + per_bit·size]: models bandwidth so that packetization (message
    bound B) shows up in T. *)
