(** Replayable counterexample files: the [*.repro.json] schema.

    A repro is everything needed to re-run a failing execution bit-identically:
    the scenario (protocol, attack name, instance parameters, seed, crash
    plan) plus the minimized choice script, and what is expected to happen
    (which invariant fails, at which event index). The JSON is written and
    parsed with {!Dr_stats.Json}; no external dependency.

    {v
    {
      "schema": "dr-check/1",
      "protocol": "broken-order",
      "attack": "default",
      "k": 3, "n": 2, "t": 0,
      "seed": "1",
      "crash": "none",
      "script": [ 2 ],
      "invariant": "agreement",
      "event": 14,
      "detail": "honest peers [0] output something other than X"
    }
    v} *)

type scenario = {
  protocol : string;  (** resolved against {!Check.target} names *)
  attack : string;  (** registry attack vocabulary; ["default"] if none *)
  k : int;
  n : int;
  t : int;
  seed : int64;  (** instance seed — input array and fault spread *)
  crash : Dr_adversary.Crash_plan.descriptor;
}

type t = {
  scenario : scenario;
  script : int list;  (** minimized choice script; replay pads with 0 *)
  invariant : string;  (** {!Invariant.name} of the expected violation *)
  event : int;  (** schedule length at which the violation is detected *)
  detail : string;
}

val write : path:string -> t -> unit
(** Schema ["dr-check/1"] JSON in a stable field order: equal values write
    byte-identical files (golden-testable). *)

val read : string -> t
(** Raises [Failure] on malformed input, unknown schema, unknown crash
    descriptor or non-integer script entries. *)

val pp : Format.formatter -> t -> unit
(** One-line summary (no script) for CLI output. *)
