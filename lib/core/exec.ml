module Bitarray = Dr_source.Bitarray

type opts = {
  latency : Dr_adversary.Latency.fn;
  link_rate : float;
  crash : Dr_adversary.Crash_plan.t;
  trace : Dr_engine.Trace.t option;
  max_events : int;
  query_override : (peer:int -> int -> bool) option;
  arbiter : Dr_engine.Sim.arbiter option;
  observer : (Dr_engine.Sim.obs -> unit) option;
}

let make_opts ?(latency = Dr_adversary.Latency.unit_delay) ?(link_rate = infinity)
    ?(crash = Dr_adversary.Crash_plan.none) ?trace ?(max_events = 200_000_000)
    ?query_override ?arbiter ?observer () =
  {
    latency;
    link_rate;
    crash;
    trace;
    max_events;
    query_override;
    arbiter;
    observer;
  }

let default = make_opts ()

let with_latency latency opts = { opts with latency }
let with_link_rate link_rate opts = { opts with link_rate }
let with_crash crash opts = { opts with crash }
let with_trace trace opts = { opts with trace = Some trace }
let with_arbiter arbiter opts = { opts with arbiter = Some arbiter }
let without_trace opts = { opts with trace = None }

(* The run's source, and the check that no reader wrote to the bytes it
   shared (an override's answers are its own business). *)
let source_of inst opts =
  match opts.query_override with
  | Some f -> (Dr_engine.Sim.bit_source f, ignore)
  | None ->
    let data = Dr_source.Data_source.create ~k:inst.Problem.k inst.Problem.x in
    ( (Dr_source.Data_source.read_range [@alert "-metered"]) data,
      fun () -> Dr_source.Data_source.check_reads data )

let config_with inst opts source =
  {
    (Dr_engine.Sim.default_config ~k:inst.Problem.k ~query_bit:(fun ~peer:_ _ -> false)) with
    source;
    seed = inst.Problem.seed;
    latency = opts.latency;
    link_rate = opts.link_rate;
    crash = opts.crash;
    trace = opts.trace;
    max_events = opts.max_events;
    arbiter = opts.arbiter;
    observer = opts.observer;
  }

let build_config inst opts = config_with inst opts (fst (source_of inst opts))

let finish ~protocol inst (outcome : Bitarray.t Dr_engine.Sim.outcome) =
  let honest = Problem.honest inst in
  let wrong = ref [] in
  (* T is the instant the last nonfaulty peer terminates (the paper's time
     complexity); stray deliveries to already-finished peers do not count.
     If some honest peer never terminated, fall back to the last event. *)
  let t_done = ref 0. in
  let all_done = ref true in
  for i = inst.Problem.k - 1 downto 0 do
    if honest i then begin
      match outcome.Dr_engine.Sim.outputs.(i) with
      | Some (t, y) ->
        if Fl.(t > !t_done) then t_done := t;
        if not (Bitarray.equal y inst.Problem.x) then wrong := i :: !wrong
      | None ->
        all_done := false;
        wrong := i :: !wrong
    end
  done;
  let time = if !all_done then !t_done else outcome.Dr_engine.Sim.end_time in
  let summary = Dr_engine.Metrics.summarize ~select:honest outcome.Dr_engine.Sim.metrics in
  {
    Problem.protocol;
    ok = List.is_empty !wrong;
    wrong = !wrong;
    q_max = summary.Dr_engine.Metrics.max_queries;
    q_mean = summary.Dr_engine.Metrics.mean_queries;
    q_total = summary.Dr_engine.Metrics.total_queries;
    msgs = summary.Dr_engine.Metrics.total_msgs;
    bits_sent = summary.Dr_engine.Metrics.total_bits;
    max_msg_bits = summary.Dr_engine.Metrics.max_msg_bits;
    time;
    status = outcome.Dr_engine.Sim.status;
  }

let run_core ?(opts = default) (module C : Transport.CORE) inst =
  let module ST = Sim_transport.Make (C.Msg) in
  let module P = C.Process (ST) in
  let source, check_reads = source_of inst opts in
  let outcome = ST.run_sim (config_with inst opts source) (P.run inst) in
  check_reads ();
  finish ~protocol:C.name inst outcome
