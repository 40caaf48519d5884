(** Per-peer cost accounting: the one meter of both runtimes.

    Tracks the DR model's query and message costs — bits queried, messages
    and bits sent, the largest message — for every peer of an execution.
    The simulator charges it from its event loop; on sockets every peer
    process charges its own copy at its id through the same [on_*] calls,
    and the runner adds the copies up ({!add}). The runner decides which
    peers count as nonfaulty when summarizing (the paper's Q is a max over
    {e nonfaulty} peers only). *)

type peer = {
  mutable queries : int;  (** bits queried at the source *)
  mutable msgs_sent : int;
  mutable bits_sent : int;
  mutable max_msg_bits : int;  (** largest single message sent *)
}

type t
(** Internally a flat counter array (one slice per peer); the [on_*] hooks
    are branch-free and allocation-free — they run once per simulated
    event. *)

val create : int -> t
(** [create k] allocates counters for [k] peers. *)

val peer : t -> int -> peer
(** (for tests) Snapshot of one peer's counters (a fresh record per call;
    mutating it does not write back). *)

val queries : t -> int -> int
val msgs_sent : t -> int -> int
(** One peer's query / send count, read without allocating (unchecked
    index): what the [After_queries] / [After_sends] crash rule
    ({!Sim.queries_granted}) compares against. *)

val on_query : t -> int -> bits:int -> unit
(** [on_query t i ~bits] charges [bits] source queries to peer [i]: a range
    read is one call. *)

val on_send : t -> int -> count:int -> size_bits:int -> unit
(** [on_send t i ~count ~size_bits] charges peer [i] with [count >= 1]
    messages of [size_bits] bits each: a broadcast's sends are one call. *)

val add : t -> t -> unit
(** [add acc m] adds [m]'s counters into [acc], peer by peer: counts are
    summed and [max_msg_bits] takes the larger value. Raises
    [Invalid_argument] when the two meters differ in size. *)

type summary = {
  max_queries : int;  (** Q: max queries over the selected peers *)
  total_queries : int;
  total_msgs : int;  (** M: messages sent by the selected peers *)
  total_bits : int;
  max_msg_bits : int;
  mean_queries : float;
}

val summarize : ?select:(int -> bool) -> t -> summary
(** Aggregate over the peers satisfying [select] (default: all). Pass the
    honesty predicate to obtain the paper's Q and M. *)
