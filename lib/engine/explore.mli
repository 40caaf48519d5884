(** Bounded systematic schedule exploration.

    The asynchronous adversary's whole power over honest peers is the order
    in which pending events (message deliveries and start signals) fire.
    With {!Sim.arbiter} that order becomes an explicit choice sequence, so
    correctness can be checked against {e every} schedule of a small
    instance — depth-first, deterministically, re-executing the
    simulation once per schedule — instead of against a handful of sampled
    latency policies. The schedule tree of any non-trivial run is
    astronomical, so exploration is budgeted: [exhausted = true] means the
    whole tree was covered, otherwise the DFS covered a lexicographic prefix
    of it. *)

type outcome = {
  schedules_run : int;
  exhausted : bool;  (** the full schedule tree fit inside the budget *)
  failures : int;
  first_failure : int list option;
      (** the choice script of the first failing schedule — replay it by
          passing the same script to {!scripted} *)
  max_depth : int;  (** longest schedule seen (events per execution) *)
}

val dfs : budget:int -> run:(arbiter:Sim.arbiter -> bool) -> outcome
(** [dfs ~budget ~run] calls [run] once per schedule, handing it an arbiter
    that drives that schedule; [run] returns whether the execution was
    correct. [run] must be deterministic given the arbiter's choices. *)

val scripted : int list -> Sim.arbiter
(** An arbiter that follows the given choice script, answering a scripted
    choice that is out of range with [count - 1], then always picks 0 — for
    replaying a failure found by {!dfs}. To detect divergence, wrap it in
    {!record}: the recorded schedule equals the script exactly when the run
    followed it; a longer one was padded with 0s past the script's end, and
    a differing entry was clamped. *)

val record : Sim.arbiter -> Sim.arbiter * (unit -> int list)
(** [record a] wraps [a] so that every choice it makes (clamped exactly as
    the simulator clamps) is logged; the second component returns the script
    so far. Recording a {!random} arbiter turns a fuzzed run into a
    deterministic, replayable script. *)

val random : Prng.t -> Sim.arbiter
(** A uniformly random arbiter: every pending event is equally likely to
    fire next — how the coverage campaign seeds its corpus. *)

val scripted_then_random : int list -> Prng.t -> Sim.arbiter
(** Follow the choice script, then continue with uniformly random choices —
    the coverage campaign's mutation arbiter: replay an interesting corpus
    prefix exactly, explore a fresh suffix. (Contrast {!scripted}, which
    pads with 0 and is meant for exact replay.) *)

(** {2 Coverage observation}

    The coverage-guided checker ({!Dr_check.Coverage}) keys its map on
    hashed signatures of the events an execution fires. The engine streams
    one {!Sim.obs} per event through [config.observer]; a {!probe}
    collapses each to a stable 30-bit key and collects the distinct keys of
    one run. *)

type probe = {
  observer : Sim.obs -> unit;  (** plug into [config.observer] (via [Exec.make_opts ~observer]) *)
  hits : unit -> int list;  (** distinct signatures so far, in first-hit order *)
}

val probe : ?bucket:int -> unit -> probe
(** A fresh single-run signature collector. A signature is a deterministic
    30-bit key of (protocol-phase × event-type × round-bucket): the event
    kind, the message tag (the protocol's own phase label, e.g.
    ["seg(c2,0)"]) and the event index divided by [bucket] (default 8) are
    FNV-1a-hashed together. Independent of wall clock, peer count and
    Hashtbl seeding, so two runs firing the same schedule produce the same
    signatures byte-for-byte. The 64-bit hash runs on OCaml's 63-bit ints:
    their [lxor] and [*] agree with [Int64]'s on every bit below 63, so
    the kept low 30 bits equal those of the [Int64] computation. *)
