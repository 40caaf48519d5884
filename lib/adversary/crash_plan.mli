(** Crash schedules for the crash-fault model.

    Builds the [crash] field of a simulator configuration from a faulty-set
    partition. The model lets the adversary stop a peer at any point,
    including between the individual sends of a broadcast — [mid_broadcast]
    exercises exactly that worst case (a peer that informed {e some} of the
    others before dying). *)

type t = int -> Dr_engine.Sim.crash_spec

val none : t

val staggered : Fault.t -> first:float -> gap:float -> t
(** The i-th faulty peer (in ID order) crashes at [first + i·gap] — one
    failure per "phase", the schedule that forces the crash protocol through
    its maximum number of reassignment rounds. [gap = 0.] crashes them all at
    [first]. *)

val mid_broadcast : Fault.t -> after_sends:int -> t
(** Every faulty peer completes exactly [after_sends] sends and dies
    attempting the next: a partial broadcast. [after_sends <= 0] silences
    them from the start (they still may query). *)

val after_queries : Fault.t -> int -> t
(** Faulty peers die after issuing that many queries — they paid for data
    they will never share. *)

(** {2 Serializable descriptors}

    First-class, printable crash plans for tooling that must store and replay
    fault schedules (the [dr_check] repro files). Only the event-counted
    plans are representable: timed crashes are meaningless under a schedule
    arbiter (see {!Dr_engine.Sim.arbiter}). *)

type descriptor =
  | No_crash
  | Mid_broadcast of int  (** {!mid_broadcast} with that [after_sends] *)
  | After_queries of int  (** {!after_queries} with that query count *)

val apply : descriptor -> Fault.t -> t

val descriptor_to_string : descriptor -> string
(** ["none"], ["mid-broadcast:J"], ["after-queries:J"]. *)

val descriptor_of_string : string -> descriptor option
(** Inverse of {!descriptor_to_string}; [None] on anything else. *)
