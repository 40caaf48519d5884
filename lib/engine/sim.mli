(** Deterministic discrete-event simulator for asynchronous message passing.

    This is the substrate on which every protocol in the repository runs. It
    implements the DR model of the paper: [k] peers on a complete network,
    point-to-point messages with adversarially chosen finite delays, an
    external source answering bit queries, crash injection, and no global
    clock visible to the peers. Peers are written in direct style as ordinary
    OCaml functions; [receive] and [query_range] are OCaml 5 effects
    interpreted by the event loop, so a peer reads exactly like the paper's
    pseudo-code ("wait until it receives …"). Only [receive] can suspend a
    peer: a source read is answered within the event that issued it. Q,
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
  (** Short label used in traces. *)
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
      (** the message's {!MESSAGE.tag} for delivers — the protocol-phase
          label ("seg(3)", "seg(c2,0)", …) — and [""] otherwise *)
  obs_step : int;  (** 0-based index of the event within the execution *)
}
(** One observation per processed event. Unlike {!Trace}, observations are
    streamed (never stored by the engine) and carry no wall-clock data, so a
    coverage sink hashing them stays deterministic under replay. See
    {!Explore.probe}. *)

type config = {
  k : int;  (** number of peers *)
  seed : int64;
  source : peer:int -> pos:int -> len:int -> Bytes.t -> unit;
      (** the external source: [source ~peer ~pos ~len b] writes bits
          [pos .. pos+len-1] into [b] from bit 0, bit [r] as bit [r land 7]
          of byte [r lsr 3] (the [Bitarray] packing), leaving later bits of
          [b] alone. Called at most once per range read, with [len >= 1]: the
          bits the reader gets before its [After_queries] crash. Per-peer
          so that lower-bound adversaries can hand corrupted peers a
          different (simulated) input array. *)
  latency : src:int -> dst:int -> time:float -> size_bits:int -> float;
      (** adversarial propagation delay; must be finite and [>= 0.] *)
  link_rate : float;
      (** bits per time unit on each ordered link, transmitted one message
          at a time in FIFO order — the paper's "a message of L bits takes
          L/B time units". [infinity] (default) disables serialization. *)
  crash : int -> crash_spec;
  trace : Trace.t option;
  max_events : int;
  arbiter : arbiter option;
  observer : (obs -> unit) option;
      (** called once per processed event, before the event's effects run —
          the coverage-guided checker's sampling hook. [None] (default) costs
          one branch per event. *)
}

val bit_source : (peer:int -> int -> bool) -> peer:int -> pos:int -> len:int -> Bytes.t -> unit
(** [bit_source query_bit] is a [config.source] that asks [query_bit] for
    each bit of the range in order, setting or clearing it in the buffer. *)

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

  val me : unit -> int
  val peer_count : unit -> int

  val now : unit -> float
  (** Current virtual time (for tests). Protocol code has no clock: the
      model has no global time, and {!Dr_core.Transport.S} offers none. *)

  val send : int -> M.t -> unit
  val broadcast : M.t -> unit
  (** [broadcast m] sends [m] to every other peer, in ID order. *)

  val receive : unit -> int * M.t
  (** Next delivered message as [(sender, message)]; blocks until one
      arrives. Protocols keep their own buffers for out-of-phase messages,
      as in the paper. *)

  val query_range : pos:int -> len:int -> Bytes.t -> unit
  (** [query_range ~pos ~len b] reads bits [pos .. pos+len-1] into [b] from
      bit 0, in [config.source]'s packing. This one effect is the
      simulator's only source read. Each bit still costs one Q unit and one
      [Trace.Queried] record, but the bits a peer gets before its crash
      point ({!queries_granted}) are charged in one step and read in one
      [source] call. The whole range is answered within the event that
      issued it, so the run is indistinguishable from a loop of one-bit
      reads. Raises [Invalid_argument] on a negative [len] or a [b] shorter
      than [(len + 7) / 8] bytes. *)

  val query : int -> bool
  (** [query i] reads bit [i] (counted in Q): a one-bit range read into the
      peer's own scratch byte, charged by the same path as [query_range]. *)

  val rng : unit -> Prng.t
  (** This peer's private random stream. *)

  val die : unit -> 'a
  (** Stop executing this peer immediately (Byzantine strategies). *)

  (** {2 Running executions} *)

  val run : config -> (int -> 'r) -> 'r outcome
  (** [run cfg proc] executes [proc i] as peer [i] for all [i < cfg.k] and
      drives events to quiescence. Raises [Invalid_argument] on negative
      latencies. Exceptions escaping a process (other than crash/halt
      control flow) propagate to the caller. *)
end
