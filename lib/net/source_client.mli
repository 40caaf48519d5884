(** Client side of the {!Source_server} service: one connection, one peer
    identity, blocking request/response — hardened against a slow or
    transiently unreachable source.

    Every request runs under a per-attempt deadline; a timeout, connection
    loss or corrupt frame tears the connection down and the request is
    retried over a fresh connection after a capped exponential backoff
    (0.05 s doubling up to 1 s) with PRNG jitter, up to [max_retries]
    reconnects (then {!Unreachable}).
    Queries carry a monotonically-increasing sequence number, so a retry of
    a request the server already processed is answered from the server's
    replay cache and charged to the peer's Q meter exactly once. *)

exception Unreachable of string
(** The source could not be reached (or a request could not complete)
    within the configured retry budget. *)

type config = {
  request_timeout : float;  (** per-attempt deadline in seconds; [0.] = none *)
  max_retries : int;  (** reconnect attempts per request *)
}

val default_config : config
(** 5 s deadline, 8 retries. *)

type t

val connect :
  ?host:string -> port:int -> peer:int -> ?cfg:config -> ?chaos:Faultnet.t -> unit -> t
(** Connect (eagerly, with the retry discipline above) and send
    [Hello peer]. [peer = Source_proto.control_peer] opens an
    accounting/control connection. [chaos] injects the {!Faultnet} fault
    schedule into every subsequent query. Raises {!Unreachable}. *)

val query_range : t -> pos:int -> len:int -> Dr_source.Bitarray.t
(** [Query_range]: bits [pos .. pos+len-1] in one round trip, charged [len]
    bits by the server, retried across reconnects under one sequence number
    (a retried range is charged once). Raises [Failure] if the server
    rejects the range, {!Unreachable} on retry exhaustion. *)

val query : t -> int -> bool
(** The model's [Query(i)]: the one-bit range [query_range t ~pos:i ~len:1],
    so still one request under one sequence number. *)

val stats : t -> int array * int * int
(** [(per_peer, total, replay_hits)] query counters. *)

val shutdown : t -> unit
(** Ask the server to stop (control connections). Not retried. *)

val reconnects : t -> int
(** Connections re-established since [connect] returned. *)

val close : t -> unit
