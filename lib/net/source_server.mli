(** The standalone external data source: [Query_range] (and so the
    model's [Query(i)], a range of one bit) over TCP.

    Serves one input array to [k] peers with per-peer query accounting —
    the socket-transport incarnation of {!Dr_source.Data_source} (which it
    wraps; the paper's Q is read off {!stats}). Thread-per-connection;
    connections speak {!Source_proto} in {!Frame}s.

    Queries are answered through a per-peer replay cache keyed on the
    client's monotonically-increasing sequence number: a retried
    [Query_range] (after a reconnect or a lost reply) returns the cached
    response and is charged to the peer's meter {e exactly once} — [len]
    bits — so transport faults can never inflate the paper's central cost
    metric. A range outside the input is answered [Err] and charged
    nothing. *)

type t

val create : ?addr:Unix.inet_addr -> ?port:int -> k:int -> Dr_source.Bitarray.t -> t
(** Bind and listen (not yet accepting). Defaults: loopback, an ephemeral
    port — read it back with {!port} before forking peers. *)

val port : t -> int

val serve : t -> unit
(** Accept loop in the calling thread; returns after a [Shutdown] request
    (the [dr_source_server] executable's main loop). *)

val start : t -> unit
(** {!serve} on a background thread (the in-process server of
    [Runner.run]). *)

val stop : t -> unit
(** Stop accepting and join the background thread. Established peer
    connections are not torn down forcibly; peers are expected to have
    disconnected. *)

val stats : t -> int array
(** Queries charged to each peer so far. *)

val total_queries : t -> int

val replay_hits : t -> int
(** Queries answered from the replay cache (retries charged to no meter). *)
