(** Deterministic discrete-event simulator for asynchronous message passing.

    This is the substrate on which every protocol in the repository runs. It
    implements the DR model of the paper: [k] peers on a complete network,
    point-to-point messages with adversarially chosen finite delays, an
    external source answering bit queries, crash injection, and no global
    clock visible to the peers. Peers are written in direct style as ordinary
    OCaml functions; [receive] and [query_range] are OCaml 5 effects
    interpreted by the event loop, so a peer reads exactly like the paper's
    pseudo-code ("wait until it receives …"). Only [receive] and [await]
    can suspend a peer: a source read is answered within the event that
    issued it. [await] is the receive loop whose body only updates local
    state; its [on] and [ready] run inside the delivering event, on the
    scheduler's stack, so a report costs no fiber switch, and they must
    not call back into the simulator. Q,
    trace records and the [After_queries] crash point are per bit, but a
    range read reaches the source in one call ([config.source]), not one
    call per bit.

    Executions are fully deterministic given the configuration and seed:
    the event queue breaks time ties by schedule order and all randomness
    comes from {!Prng}. *)

exception Crashed
(** Raised inside a peer's process when the adversary crashes it; the engine
    uses it to unwind the fiber. Protocol code must not catch it. *)

exception Halted
(** Raised by {!die}; used by Byzantine strategies that stop voluntarily. *)

module type MESSAGE = sig
  type t

  val size_bits : t -> int
  (** Size charged against the message-complexity accounting. Protocols are
      responsible for respecting their own bound [B]. *)

  val tag : t -> string
  (** Short label used in traces and observations, e.g. a protocol phase.
      It must be a function of the message's immutable content: the engine
      renders it once per send effect (once for every destination of a
      {!Make.broadcast}), at the send, and only when a trace or an
      observer is installed, and the recorded [Sent] and [Delivered] events
      and the delivery's {!obs} all carry that one string. *)
end

type crash_spec =
  | Never
  | At_time of float  (** crash at the given instant (peer must be idle/blocked) *)
  | After_sends of int
      (** complete exactly j sends, die attempting the next: a mid-cycle
          partial broadcast, the hard case of the crash model. [After_sends 0]
          never sends anything. See {!send_forbidden}. *)
  | After_queries of int
      (** crash immediately after the j-th queried bit; see
          {!queries_granted} *)

(** {2 The crash rule}

    Where an event-counted plan stops a peer, for the simulator and the
    socket transport alike; [queried] and [sent] are the peer's {!Metrics}
    counts before the operation. [After_sends j]: [j] sends complete and
    the peer dies attempting the next, which is lost. [After_queries j]:
    the peer crashes right after its [j]-th queried bit. A [len]-bit range
    read stands for a loop of one-bit reads checked after each bit, so it
    gets [min len (j - queried)] bits, at least one; a [len = 0] read gets
    none and never crashes. *)

val queries_granted : crash_spec -> queried:int -> len:int -> int
(** The bits of a [len]-bit range the peer gets before its crash point. *)

val crashes_after_queries : crash_spec -> queried:int -> granted:int -> bool
(** Whether the peer crashes once charged the [granted] bits. *)

val send_forbidden : crash_spec -> sent:int -> bool
(** Whether the next send is the one [After_sends] forbids. *)

type status =
  | Completed  (** every live peer's process returned *)
  | Deadlock of int list  (** live peers still blocked when no event remained *)
  | Event_limit_reached

type arbiter = int -> int
(** Schedule arbiter for systematic exploration: called with the number of
    currently pending events, returns the index (0-based) of the one to fire
    next; an index outside [[0, count)] falls back to 0. Pending events are
    indexed in the order they were scheduled (heap order within one drain),
    and removing one keeps the others' relative order. When set, event
    {e times} are ignored — any pending event may fire in any order, which
    is exactly the asynchronous adversary's power over message delays and
    the order in which peers start. Sound for protocols that never read the
    clock: {!Dr_core.Transport.S} has none, so every transport core
    qualifies. Timed crashes ([At_time]) are not meaningful under an
    arbiter; use [After_sends] / [After_queries]. See {!Explore}. *)

type obs_kind = Obs_start | Obs_deliver | Obs_crash | Obs_query_reply | Obs_wake
(** The category of a fired event, as seen by an observer. The engine emits
    only [Obs_start], [Obs_deliver] and [Obs_crash]; [Obs_query_reply] and
    [Obs_wake] are never emitted and stay only so that exhaustive matches
    elsewhere keep compiling. *)

type obs = {
  obs_kind : obs_kind;
  obs_peer : int;  (** the peer the event applies to (destination for delivers) *)
  obs_tag : string;
      (** for a delivery, the {!MESSAGE.tag} rendered when the message was
          sent — the protocol-phase label ("seg(3)", "seg(c2,0)", …); [""]
          for a start or a crash *)
  obs_step : int;  (** 0-based index of the event within the execution *)
}
(** One observation per processed event. Unlike {!Trace}, observations are
    streamed (never stored by the engine) and carry no wall-clock data, so a
    coverage sink hashing them stays deterministic under replay. See
    {!Explore.probe}. *)

type config = {
  k : int;  (** number of peers *)
  seed : int64;
  source : peer:int -> pos:int -> len:int -> Bytes.t;
      (** the external source: [source ~peer ~pos ~len] is bits
          [pos .. pos+len-1] packed from bit 0 in [(len + 7) / 8] bytes, bit
          [r] as bit [r land 7] of byte [r lsr 3] (the [Bitarray] packing),
          padding zero. Called at most once per range read, with
          [len >= 1]: the bits the reader gets before its [After_queries]
          crash. The engine hands the bytes to the reader as they are, so a
          source may return the same bytes to several reads (the default
          [Data_source.read_range] does); readers must not write to them.
          Per-peer so that lower-bound adversaries can hand corrupted peers
          a different (simulated) input array. *)
  latency : src:int -> dst:int -> size_bits:int -> float;
      (** adversarial propagation delay; must be finite and [>= 0.] *)
  link_rate : float;
      (** bits per time unit on each ordered link, transmitted one message
          at a time in FIFO order — the paper's "a message of L bits takes
          L/B time units". Must be [> 0.]; [infinity] (default) disables
          serialization. *)
  crash : int -> crash_spec;
  trace : Trace.t option;
  max_events : int;
  arbiter : arbiter option;
  observer : (obs -> unit) option;
      (** called once per processed event, before the event's effects run —
          the coverage-guided checker's sampling hook. [None] (default) costs
          one branch per event, and with no [trace] either no tag is
          rendered. *)
}

val bit_source : (peer:int -> int -> bool) -> peer:int -> pos:int -> len:int -> Bytes.t
(** [bit_source query_bit] is a [config.source] that asks [query_bit] for
    each bit of the range in order. A longer range gets fresh bytes; a
    one-bit read gets one of two constant bytes that [bit_source query_bit]
    made, so it allocates nothing. *)

val default_config : k:int -> query_bit:(peer:int -> int -> bool) -> config
(** Source [bit_source query_bit], unit latency on every link, unbounded
    link rate, no crashes, no trace, no arbiter, no observer, generous
    event limit. Every peer starts at time 0 (not configurable; an arbiter
    can still fire the starts in any order). *)

type 'r outcome = {
  outputs : (float * 'r) option array;
      (** per peer: termination time and returned value; [None] for peers
          that crashed, died or blocked forever *)
  metrics : Metrics.t;
  status : status;
  end_time : float;  (** time of the last processed event *)
  events : int;  (** total events processed — the bench harness's work unit *)
}

module Make (M : MESSAGE) : sig
  (** {2 Process-side API}

      These may only be called from inside a process executed by {!run}. *)

  val peer_count : unit -> int

  val send : int -> M.t -> unit
  val broadcast : M.t -> unit
  (** [broadcast m] sends [m] to every other peer, in ID order. *)

  val receive : unit -> int * M.t
  (** Next delivered message as [(sender, message)]; blocks until one
      arrives. Protocols keep their own buffers for out-of-phase messages,
      as in the paper. *)

  val await : ready:(unit -> bool) -> on:(int -> M.t -> unit) -> unit
  (** [await ~ready ~on] is exactly
      [while not (ready ()) do let src, m = receive () in on src m done]:
      the same events, trace records, observations and outcome. It returns
      at once when [ready ()] holds on entry. Otherwise each message —
      first those already in the mailbox, then each delivery — is passed to
      [on] and followed by [ready ()] inside the delivering event, and the
      peer resumes only once [ready] holds. [on] and [ready] must not call
      any function of this module: such a call raises [Effect.Unhandled]
      in the peer. An exception from [on] or [ready] ([die ()] among them)
      ends the peer as if raised by the loop body. *)

  val query_range : pos:int -> len:int -> Bytes.t
  (** [query_range ~pos ~len] is bits [pos .. pos+len-1], as the bytes
      [config.source] returned for them ([Bytes.empty] when [len = 0]).
      They are read-only: the source may hand the same bytes to other
      reads, of this peer or another, so copy them before writing. This
      one effect is the simulator's only source read. Each bit still costs
      one Q unit and one [Trace.Queried] record, but the bits a peer gets
      before its crash point ({!queries_granted}) are charged in one step
      and read in one [source] call. The whole range is answered within
      the event that issued it, so the run is indistinguishable from a
      loop of one-bit reads. Raises [Invalid_argument] on a negative
      [len]. *)

  val query : int -> bool
  (** [query i] reads bit [i] (counted in Q): bit 0 of a one-bit range
      read, charged by the same path as [query_range]. *)

  val rng : unit -> Prng.t
  (** This peer's private random stream. *)

  val die : unit -> 'a
  (** Stop executing this peer immediately (Byzantine strategies). *)

  (** {2 Running executions} *)

  val run : config -> (int -> 'r) -> 'r outcome
  (** [run cfg proc] executes [proc i] as peer [i] for all [i < cfg.k] and
      drives events to quiescence. Raises [Invalid_argument] on a
      [link_rate] not [> 0.], an [At_time nan] crash, or a latency that is
      negative or not finite. Exceptions escaping a process (other than
      crash/halt control flow) propagate to the caller.

      A run reuses, emptied, the event queue and slot codes the last run in
      its domain returned with (its message arrays are its own), and keeps
      a cold run's schedule. A nested run, or one in another domain,
      allocates its own; a run that raises drops its storage. *)
end
