(** The trusted external data source of the DR model.

    Wraps the input array behind the query interface and keeps per-peer query
    accounting (the paper's Q is derived from these counters, or equivalently
    from {!Dr_engine.Metrics}). The source is read-only and always answers
    correctly — faults live in the peer set, never here. Section 4's
    Byzantine {e data sources} are modelled separately in [Dr_oracle]. *)

type t

val create : ?share:bool -> k:int -> Bitarray.t -> t
(** [create ~k x] serves the array [x] to [k] peers. With [~share:false]
    (default [true]) {!read_range} packs every read of two or more bits
    afresh and keeps nothing, so the source's memory does not grow with
    the distinct ranges its readers ask for: the socket source server,
    which lives across requests from untrusted peers, uses that. *)

val n : t -> int
(** Number of bits. *)

val query : t -> peer:int -> int -> bool
[@@alert
  metered
    "reads the source around the Q meter; use the query function the runtime hands to the \
     protocol"]
(** Answer a query and charge it to [peer]. Raises [Invalid_argument] on an
    out-of-range index or peer, before charging anything. *)

val query_fn : t -> peer:int -> int -> bool
[@@alert
  metered
    "reads the source around the Q meter; use the query function the runtime hands to the \
     protocol"]
(** Same, shaped as the per-bit function {!Dr_engine.Sim.default_config}
    and {!Dr_engine.Sim.bit_source} take. *)

val read_range : t -> peer:int -> pos:int -> len:int -> Bytes.t
[@@alert
  metered
    "reads the source around the Q meter; use the query function the runtime hands to the \
     protocol"]
(** [read_range t ~peer ~pos ~len] answers the [len] queries
    [pos .. pos+len-1] at once: it charges [len] to [peer], on every call,
    and returns the bits packed from bit 0 ({!Bitarray.sub_bytes}'s
    layout). The bytes are shared, not copied: [t] packs each distinct
    [(pos, len)] once, on its first read, and returns those same bytes to
    every later read of it (unless created with [~share:false]), and every
    one-bit read gets one of two constant bytes. They are therefore
    read-only: a caller that writes to them changes what every other
    reader of that range sees ({!check_reads} catches it). Shaped for {!Dr_engine.Sim.config}'s
    [source] field. Raises [Invalid_argument] on a bad peer or a range
    outside the input, before charging anything. *)

type answer = Range of { pos : int; len : int } | One_bit of bool
(** A shared answer of {!read_range}: a memoised range, or the constant
    byte of a one-bit read of that value. *)

exception Read_mutated of answer

val check_reads : t -> unit
(** Raises [Read_mutated] on the first answer {!read_range} shared whose
    bytes no longer equal [X]'s bits, i.e. that some caller wrote to.
    [Exec.run_core] calls it after every simulator run. *)

val queries_by : t -> int -> int
(** Queries charged to a peer so far. *)

val total_queries : t -> int
