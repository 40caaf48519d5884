(** The trusted external data source of the DR model.

    Wraps the input array behind the query interface and keeps per-peer query
    accounting (the paper's Q is derived from these counters, or equivalently
    from {!Dr_engine.Metrics}). The source is read-only and always answers
    correctly — faults live in the peer set, never here. Section 4's
    Byzantine {e data sources} are modelled separately in [Dr_oracle]. *)

type t

val create : k:int -> Bitarray.t -> t
(** [create ~k x] serves the array [x] to [k] peers. *)

val n : t -> int
(** Number of bits. *)

val query : t -> peer:int -> int -> bool
(** Answer a query and charge it to [peer]. Raises [Invalid_argument] on an
    out-of-range index or peer, before charging anything. *)

val query_fn : t -> peer:int -> int -> bool
(** Same, shaped for {!Dr_engine.Sim.Make}'s [query_bit] field. *)

val queries_by : t -> int -> int
(** Queries charged to a peer so far. *)

val total_queries : t -> int
