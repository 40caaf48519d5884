(** The request/response vocabulary of the data-source service.

    One {!Frame} per value, [Marshal]-encoded. A connection starts with a
    single [Hello peer] identifying the querying peer (queries on that
    connection are charged to it), followed by any number of requests, each
    answered with exactly one response.

    Queries carry a per-peer sequence number that increases monotonically
    across {e reconnects}: a client that loses a connection (or a reply)
    retries the same request under the same [seq], and the server answers a
    [seq] it has already processed from its replay cache {e without
    consulting the data source again} — so transport retries can never
    inflate the paper's Q meter. *)

type request =
  | Hello of int
      (** peer id in [0, k); {!control_peer} opens an accounting/control
          connection that may not query *)
  | Query_range of { seq : int; pos : int; len : int }
      (** the only source read: bits [pos .. pos+len-1] in one round trip,
          charged as [len] of the model's [Query(i)], bit by bit. The
          model's single-bit [Query(i)] is the range [(i, 1)]. [seq] is the
          peer's monotonically-increasing request number; a repeat of the
          last processed [seq] is answered from the replay cache and charged
          nothing, a [seq] older than that is a protocol error. A range
          outside the input is rejected before any bit is charged. *)
  | Stats  (** per-peer query counters *)
  | Shutdown  (** stop the server (control connections only) *)

type response =
  | Bits of Dr_source.Bitarray.t  (** answers [Query_range] *)
  | Stats_reply of { per_peer : int array; total : int; replays : int }
      (** [replays] counts queries answered from the replay cache — retries
          that were {e not} charged to any peer's meter *)
  | Bye  (** acknowledges [Shutdown] *)
  | Err of string  (** protocol violation or out-of-range argument *)

val control_peer : int
(** [-1]: the [Hello] id of a non-querying control connection. *)
