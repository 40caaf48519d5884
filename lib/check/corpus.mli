(** The campaign's corpus of coverage-interesting schedules.

    An {!entry} is a fully replayable recipe — a {!Repro.scenario} plus the
    recorded arbiter script — admitted when the run lit up signatures the
    {!Coverage} map had not seen. The mutation phase of
    {!Check.campaign} draws entries with the campaign Prng and perturbs
    them (see {!Mutate}). Persisted as a directory of [entry-NNNN.json]
    files (schema ["dr-corpus/1"]) in admission order, so the same campaign
    saves the same bytes. *)

type entry = {
  scenario : Repro.scenario;
  script : int list;  (** the recorded schedule that produced the coverage *)
  new_signatures : int;  (** how many signatures were new at admission *)
}

type t

val create : unit -> t
val add : t -> entry -> unit
val size : t -> int

val pick : Dr_engine.Prng.t -> t -> entry option
(** Uniform draw, [None] on an empty corpus. *)

val save : t -> dir:string -> unit
(** Write [dir/entry-0000.json] … in admission order, creating [dir] if
    needed. *)
