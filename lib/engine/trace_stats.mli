(** Aggregate views over execution traces.

    Communication matrices answer "who talked to whom, and how much" — the
    fastest way to see a protocol's structure (committee fan-out, the
    termination flood, a lower-bound adversary starving one victim) or to
    spot an imbalance bug. *)

val message_matrix : Trace.t -> k:int -> int array array
(** [m.(src).(dst)] = messages sent src → dst (from [Sent] events). *)

val bits_matrix : Trace.t -> k:int -> int array array
(** Same, in payload bits. *)

val pp_matrix : ?label:string -> Format.formatter -> int array array -> unit
(** Fixed-width rendering with row/column peer indices. *)

val pp_lanes : ?max_events:int -> k:int -> Format.formatter -> Trace.t -> unit
(** A time–space view: one column per peer, one row per event, so message
    flow reads top to bottom ([>d] = send to d, [<s] = delivery from s,
    [?i] = query, [X] = crash, [#] = termination). Intended for small
    executions; rendering stops after [max_events] rows (default 200). *)
