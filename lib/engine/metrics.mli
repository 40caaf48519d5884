(** Per-peer cost accounting.

    Tracks the three complexity measures of the DR model — queries, time and
    messages — plus bit volumes, for every peer of an execution. The runner
    decides which peers count as nonfaulty when summarizing (the paper's Q is
    a max over {e nonfaulty} peers only). *)

type peer = {
  mutable queries : int;  (** bits queried at the source *)
  mutable msgs_sent : int;
  mutable bits_sent : int;
  mutable msgs_received : int;
  mutable max_msg_bits : int;  (** largest single message sent *)
  mutable wakeups : int;  (** times the peer was resumed by a delivery *)
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
    index): what the simulator's [After_queries] / [After_sends] crash
    checks compare against. *)

val on_query : t -> int -> bits:int -> unit
(** [on_query t i ~bits] charges [bits] source queries to peer [i]: a range
    read is one call. *)

val on_send : t -> int -> size_bits:int -> unit
val on_receive : t -> int -> unit
val on_wakeup : t -> int -> unit

type summary = {
  max_queries : int;  (** Q: max queries over the selected peers *)
  total_queries : int;
  total_msgs : int;  (** M: messages sent by the selected peers *)
  total_bits : int;
  max_msg_bits : int;
  mean_queries : float;
  max_wakeups : int;
      (** most times any selected peer was resumed by a delivery — a proxy
          for the paper's per-peer cycle count *)
}

val summarize : ?select:(int -> bool) -> t -> summary
(** Aggregate over the peers satisfying [select] (default: all). Pass the
    honesty predicate to obtain the paper's Q and M. *)
