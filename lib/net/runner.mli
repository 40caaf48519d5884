(** Run a transport-generic protocol core as [k] real OS processes, under
    supervision.

    The runner forks one child per peer; children wire themselves into a
    full TCP mesh over loopback (ports are bound by the parent before
    forking, so there is no registration round), connect to the data-source
    server through the retrying {!Source_client}, and execute
    [Core.Process(Net_transport).run]. Each child ships its output, its
    {!Dr_engine.Metrics} meter and an {!outcome} classification back over a
    pipe. The runner adds the meters into one ({!Dr_engine.Metrics.add}):
    M comes from the peers' own meters, while each peer's Q is set to the
    {e server's} per-peer count, the authoritative meter (whose replay cache
    guarantees transport retries are charged exactly once).

    Supervision: the parent watches all result pipes together; a child that
    dies without reporting is detected by pipe EOF and classified through
    [waitpid] immediately, not waited out, and every supervision syscall
    restarts on [EINTR]. Peers missing at the deadline are killed and
    reported [Timed_out].

    The {!Dr_core.Problem.report} is built by {!Dr_core.Exec.finish}, as on
    the simulator: [ok] iff every honest peer terminated with output = X,
    and honest peers that timed out are listed in a [Deadlock] status.
    Every output is stamped with the run's wall-clock time, so [time] is
    wall-clock seconds (not comparable with the simulator's virtual T), and
    message totals reflect this particular real schedule — only
    schedule-invariant quantities (the verdict; Q and M of
    schedule-invariant protocol configurations) are comparable across
    transports. *)

type source = { host : string; port : int }

type chaos = { chaos_seed : int64; plan : Faultnet.plan }
(** A {!Faultnet} fault schedule: each child draws its own deterministic
    stream from [chaos_seed], so the same [{chaos_seed; plan}] reproduces
    the identical fault schedule on every run. *)

type outcome =
  | Completed  (** the peer process returned an output (possibly wrong) *)
  | Crashed  (** injected crash ([After_sends]/[After_queries]) or [die ()] *)
  | Link_lost  (** every peer link went down; [receive] could never return *)
  | Source_unreachable  (** source retry budget exhausted *)
  | Timed_out  (** no report by the deadline; the child was killed *)
  | Corrupt_frame  (** an unrecoverable corrupt/desynchronized stream *)
  | Failed of string  (** anything else, verbatim *)

val outcome_to_string : outcome -> string

val run :
  ?timeout:float ->
  ?source:source ->
  ?crash:Dr_adversary.Crash_plan.t ->
  ?chaos:chaos ->
  ?client_cfg:Source_client.config ->
  (module Dr_core.Transport.CORE) ->
  Dr_core.Problem.instance ->
  Dr_core.Problem.report
(** Defaults: [timeout = 60.] seconds of wall clock, after which stuck
    children are killed and reported in a [Deadlock] status; [source] — a
    {!Source_server} spawned in-process for the instance's array (pass an
    address to use an external [dr_source_server], whose query counters are
    then read as deltas); [crash] — no crashes; [chaos] — no injected
    faults; [client_cfg] — {!Source_client.default_config}. Runs any core on
    any instance, as {!Dr_core.Exec.run_core} does ({!Dr_core.Registry.admits}
    checks the regime). Raises [Failure] when the crash plan contains an
    [At_time] spec (wall-clock crash instants are not meaningful here — use
    the event-counted specs), and
    {!Source_client.Unreachable} when an external source cannot be reached
    at all. *)

type fault_counters = {
  reconnects : int;  (** source connections the peers' clients re-established *)
  replay_hits : int;  (** source requests answered from the server's replay cache *)
  retransmissions : int;  (** injected-fault retransmissions on peer links *)
  corrupt_frames : int;  (** corrupted frames receivers discarded by CRC *)
}
(** What the infrastructure faults of one run cost, summed over every peer
    that reported (faulty ones included): the evidence that each {!chaos}
    clause actually fired. [reconnects] counts blackouts, forced
    disconnects and lost replies; [replay_hits] lost replies; the other two
    drops and corruption. All zero without [chaos]. *)

val run_counted :
  ?timeout:float ->
  ?source:source ->
  ?crash:Dr_adversary.Crash_plan.t ->
  ?chaos:chaos ->
  ?client_cfg:Source_client.config ->
  (module Dr_core.Transport.CORE) ->
  Dr_core.Problem.instance ->
  Dr_core.Problem.report * outcome array * fault_counters
(** Like {!run_detailed}, also returning the run's {!fault_counters}. *)

val run_detailed :
  ?timeout:float ->
  ?source:source ->
  ?crash:Dr_adversary.Crash_plan.t ->
  ?chaos:chaos ->
  ?client_cfg:Source_client.config ->
  (module Dr_core.Transport.CORE) ->
  Dr_core.Problem.instance ->
  Dr_core.Problem.report * outcome array
(** Like {!run}, also returning each peer's {!outcome} (indexed by peer id,
    faulty peers included) — the failure taxonomy behind the report's flat
    [wrong] list. *)
