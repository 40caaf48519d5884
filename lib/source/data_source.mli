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
(** Same, shaped as the per-bit function {!Dr_engine.Sim.default_config}
    and {!Dr_engine.Sim.bit_source} take. *)

val read_range : t -> peer:int -> pos:int -> len:int -> Bytes.t -> unit
(** [read_range t ~peer ~pos ~len b] answers the [len] queries
    [pos .. pos+len-1] at once: it charges [len] to [peer] and copies the
    bits into [b] packed from bit 0 ({!Bitarray.blit_to_bytes}'s layout;
    bits of [b] from [len] on are untouched). Shaped for
    {!Dr_engine.Sim.config}'s [source] field. Raises [Invalid_argument] on
    a bad peer, a range outside the input or a [b] shorter than
    [(len + 7) / 8] bytes, before charging anything. *)

val queries_by : t -> int -> int
(** Queries charged to a peer so far. *)

val total_queries : t -> int
