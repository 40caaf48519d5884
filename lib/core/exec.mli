(** Shared execution machinery for all protocol modules.

    Bundles the adversarial environment (latency policy, link rate, crash
    plan, schedule arbiter) and turns a raw simulator outcome into a
    {!Problem.report} by checking every nonfaulty output against [X]. *)

type opts = private {
  latency : Dr_adversary.Latency.fn;
  link_rate : float;
      (** link bandwidth in bits per time unit (see {!Dr_engine.Sim.config});
          [infinity] by default *)
  crash : Dr_adversary.Crash_plan.t;
  trace : Dr_engine.Trace.t option;
  max_events : int;
  query_override : (peer:int -> int -> bool) option;
      (** replace the source for selected peers — the lower-bound adversary
          hands corrupted peers a simulated input this way *)
  arbiter : Dr_engine.Sim.arbiter option;
      (** schedule arbiter for systematic exploration (see
          {!Dr_engine.Explore}); overrides latency-based ordering *)
  observer : (Dr_engine.Sim.obs -> unit) option;
      (** per-event observation sink — the coverage-guided checker's
          sampling hook (see {!Dr_engine.Explore.probe}) *)
}
(** The record is [private]: read fields freely, but construct values only
    through {!make_opts} and the [with_*] combinators, so adding a field
    never breaks callers. *)

val make_opts :
  ?latency:Dr_adversary.Latency.fn ->
  ?link_rate:float ->
  ?crash:Dr_adversary.Crash_plan.t ->
  ?trace:Dr_engine.Trace.t ->
  ?max_events:int ->
  ?query_override:(peer:int -> int -> bool) ->
  ?arbiter:Dr_engine.Sim.arbiter ->
  ?observer:(Dr_engine.Sim.obs -> unit) ->
  unit ->
  opts
(** Labelled constructor; every omitted field takes the [default] value
    (unit latencies, unbounded links, no crashes, no trace, no arbiter, no
    observer). Every peer starts at time 0 and every source read is
    answered at once: the simulator has no setting for either. Preferred
    over record literals: adding a field to [opts] does not break
    [make_opts] callers. *)

val default : opts
(** [make_opts ()] — unit latencies, unbounded links, no crashes. *)

val with_latency : Dr_adversary.Latency.fn -> opts -> opts
val with_link_rate : float -> opts -> opts
val with_crash : Dr_adversary.Crash_plan.t -> opts -> opts
val with_trace : Dr_engine.Trace.t -> opts -> opts
val with_arbiter : Dr_engine.Sim.arbiter -> opts -> opts

val without_trace : opts -> opts
(** Drop the trace sink (an exploration run re-executes thousands of
    schedules; tracing them is noise). *)

val build_config : Problem.instance -> opts -> Dr_engine.Sim.config
(** Simulator configuration for the instance: a fresh counting data source
    serving [X] (or the override), plus the adversarial environment from
    [opts]. *)

val finish :
  protocol:string ->
  Problem.instance ->
  Dr_source.Bitarray.t Dr_engine.Sim.outcome ->
  Problem.report
(** Check outputs and aggregate metrics over {e nonfaulty} peers only, per
    the paper's definitions of Q and M. A nonfaulty peer with a missing
    output (deadlocked) counts as wrong. The one report builder: the socket
    runner ([Dr_net.Runner]) calls it too. *)

val run_core : ?opts:opts -> (module Transport.CORE) -> Problem.instance -> Problem.report
(** Run a protocol core on the simulator: instantiate {!Sim_transport} for
    its message type, execute every peer's [Process.run] under
    {!build_config}, and {!finish} the outcome under the core's [name]. The
    registry's [run] field is this applied to the entry's [core]. *)
