(** Structured execution traces.

    A trace records the externally visible history of a simulated execution:
    sends, deliveries, source queries, crashes, terminations and
    deadlocks. Traces are what the lower-bound constructions compare when
    arguing that two executions are indistinguishable to a peer, and what the
    tests inspect to check scheduling properties. Tracing is opt-in; benches
    run without one. *)

type event =
  | Sent of { time : float; src : int; dst : int; size_bits : int; tag : string }
  | Delivered of { time : float; src : int; dst : int; tag : string }
  | Queried of { time : float; peer : int; index : int; value : bool }
  | Crashed of { time : float; peer : int }
  | Terminated of { time : float; peer : int }
  | Deadlocked of { time : float; blocked : int list }

type t

val create : ?capacity:int -> unit -> t
(** A fresh empty trace. [capacity] is an initial buffer hint. *)

val record : t -> event -> unit

val events : t -> event list
(** All recorded events, in order. *)

val length : t -> int

val events_of_peer : t -> int -> event list
(** Events in which the given peer participates (as actor, sender or
    receiver). This is the "view" used by indistinguishability checks. *)

val received_view : t -> int -> (float * int * string) list
(** [(time, src, tag)] of every delivery to the peer — what the peer can
    actually observe of the network, used by [Dr_lowerbound]. *)

val query_view : t -> int -> (int * bool) list
(** [(index, answer)] of every source query made by the peer, in order. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit

(** {2 Persistence}

    A simple line-oriented text format, one event per line, so traces can be
    saved from a run and analysed offline (see the [dr_trace] CLI). Message
    tags must not contain newlines. *)

val save : t -> string -> unit
(** Write to a file (overwrites). Raises [Invalid_argument] naming the
    event, before the file is opened, when a message tag contains a
    newline. *)

val load : string -> t
(** Read a file written by {!save}. Raises [Failure] with the offending line
    number on a malformed file. *)
