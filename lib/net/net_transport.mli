(** {!Dr_core.Transport.S} over real sockets.

    One peer = one OS process; every peer link is a TCP connection carrying
    {!Frame}s of [Marshal]-encoded protocol messages; [query] is a blocking
    round-trip to the {!Source_server} through the retrying
    {!Source_client}. Per-link receiver threads feed a blocking inbox so
    [receive] has the same "next delivered message" semantics as the
    simulator.

    Costs and crashes follow the simulator's rules, not a copy of them:
    every send and source read is charged to the peer's [env.meter] at
    [me] through the same {!Dr_engine.Metrics} calls the simulator makes,
    and the event-counted crash plans stop the peer where
    {!Dr_engine.Sim}'s crash rule says, by raising {!Crashed}. As there, a
    send outside [[0, k)] raises [Invalid_argument] before the crash rule
    and the charge, and a send to itself reaches the peer's own inbox.
    [At_time] is rejected upstream by {!Runner} — wall-clock crash times
    are not meaningful in an asynchronous run.

    Fault injection ({!Faultnet}) sits below the reliability the protocols
    assume: a send may stall, be dropped (and silently retransmitted after a
    pause) or first go out with a flipped bit (the receiver discards it by
    CRC and the good copy follows) — the protocol still sees exactly one
    logical delivery, charged once to the M meter. A receiver thread whose
    link dies retires it with a sentinel; once every link is down and the
    inbox is drained, [receive] raises {!Link_lost} instead of blocking
    forever, so the runner can classify the peer's outcome.

    The peer's random stream reproduces the simulator's discipline: the
    (me+1)-th [Prng.split] of [Prng.create seed], so protocol coin flips
    agree across the two transports. *)

exception Crashed
(** Raised by the crash hooks; the peer process unwinds and reports no
    output. Protocol code must not catch it. [die] raises
    {!Dr_engine.Sim.Halted}, as on the simulator. *)

exception Link_lost
(** Raised by [receive] when every peer link is down and no queued message
    remains — the peer is partitioned and can never be woken again. *)

module Bqueue : sig
  type 'a t
  (** The inbox the receiver threads feed; every access holds its mutex. *)
end

type inbox_item = Msg of int * bytes | Link_down of int

type counters = {
  mutable retrans : int;
      (** injected-fault retransmissions on peer links (drops + corrupted
          first copies) — infrastructure traffic, not charged to the meter *)
  mutable corrupt_rx : int;  (** received frames discarded by CRC *)
}
(** Infrastructure counters only: the model's costs live in [env.meter]. *)

type env = {
  me : int;
  k : int;
  links : Unix.file_descr option array;  (** [links.(me) = None] *)
  inbox : inbox_item Bqueue.t;
  source : Source_client.t;
  prng : Dr_engine.Prng.t;
  crash : Dr_engine.Sim.crash_spec;
  chaos : Faultnet.t option;
  meter : Dr_engine.Metrics.t;
      (** sized for all [k] peers but charged only at [me]; the runner adds
          every peer's meter into one *)
  counters : counters;
  mutable links_down : int;
}
(** One peer process's runtime state. It holds no clock: neither transport
    gives a protocol a way to read the time or wait for it to pass. *)

val make_env :
  me:int ->
  k:int ->
  links:Unix.file_descr option array ->
  source:Source_client.t ->
  prng:Dr_engine.Prng.t ->
  crash:Dr_engine.Sim.crash_spec ->
  ?chaos:Faultnet.t ->
  unit ->
  env

val start_receivers : env -> unit
(** Spawn one reader thread per open link, feeding [env.inbox]. *)

module Make (M : Dr_core.Transport.MSG) (_ : sig
  val env : env
end) : Dr_core.Transport.S with type msg = M.t
