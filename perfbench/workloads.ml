(* The four workloads: their shapes, the inputs a seed generates for them,
   and the two ways of running one Download — untraced (the registry's own
   entry point, exactly as a user calls it) and traced (the registry core
   over a counting transport, with an event observer and a metered source,
   all attached from outside the library). *)

module Problem = Dr_core.Problem
module Exec = Dr_core.Exec
module Registry = Dr_core.Registry
module Spec = Dr_core.Spec
module Transport = Dr_core.Transport
module Sim = Dr_engine.Sim
module Prng = Dr_engine.Prng
module Latency = Dr_adversary.Latency
module Data_source = Dr_source.Data_source
module Check = Dr_check.Check

type shape = { protocol : string; k : int; n : int; t : int }
type kind = Sim_download | Net_download | Campaign
type workload = { name : string; kind : kind; shape : shape; why : string }

let workloads =
  [
    {
      name = "sim-wide";
      kind = Sim_download;
      shape = { protocol = "byz-multicycle"; k = 128; n = 256; t = 16 };
      why = "many peers, short input: engine delivery and Frequent dominate";
    };
    {
      name = "sim-deep";
      kind = Sim_download;
      shape = { protocol = "byz-2cycle"; k = 64; n = 16384; t = 8 };
      why = "long input: per-bit query effects, Bitarray.init and Data_source dominate";
    };
    {
      name = "net-loopback";
      kind = Net_download;
      shape = { protocol = "byz-2cycle"; k = 4; n = 1024; t = 1 };
      why = "forked peers over loopback TCP: spawn, per-query RTT and framing dominate";
    };
    {
      name = "check-campaign";
      kind = Campaign;
      shape = { protocol = "byz-2cycle"; k = 8; n = 64; t = 3 };
      why = "coverage campaign under the schedule arbiter: the arbiter's list pool dominates";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads
let entry w = Registry.find_exn w.shape.protocol

(* Every Download workload runs the near-miss attack: each forgery is one
   flipped bit, so every one is a distinct decision-tree leaf. The campaign
   draws its attacks from the registry catalog instead. *)
let attack = "nearmiss"

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)
(* ------------------------------------------------------------------ *)

type input = { inst : Problem.instance; latency_seed : int64 }

(* [inputs ~seed w count]: the first [count] inputs of the workload's
   stream. Everything a Download consumes — the array X, the faulty set,
   the protocol's coin flips, the message delays — comes from [seed]. *)
let inputs ~seed w count =
  let salt = Hashtbl.hash w.name in
  let master = Prng.create (Int64.of_int ((seed * 1_000_003) + salt)) in
  let s = w.shape in
  Array.init count (fun _ ->
      let inst_seed = Prng.next64 master in
      let latency_seed = Prng.next64 master in
      let inst =
        Problem.random_instance ~seed:inst_seed ~model:Problem.Byzantine ~k:s.k ~n:s.n ~t:s.t ()
      in
      { inst; latency_seed })

(* A fresh jittered latency stream per Download, so a repeated input replays
   the identical schedule (the traced run is compared against it). *)
let latency input = Latency.jittered (Prng.create input.latency_seed)

(* ------------------------------------------------------------------ *)
(* Verification                                                       *)
(* ------------------------------------------------------------------ *)

(* A Download counts as verified when every honest peer output X, the run
   completed, and — for protocols whose bound is deterministic — the
   measured Q respects the paper's bound. *)
let verified w (inst : Problem.instance) (r : Problem.report) =
  let spec = (entry w).Registry.spec in
  let completed = match r.Problem.status with Sim.Completed -> true | _ -> false in
  r.Problem.ok && completed
  && (spec.Spec.randomized
     || Spec.within spec ~k:inst.Problem.k ~n:(Problem.n inst) ~t:(Problem.t inst)
          ~b:inst.Problem.b ~measured:r.Problem.q_max)

(* ------------------------------------------------------------------ *)
(* Running one Download                                               *)
(* ------------------------------------------------------------------ *)

let run_untraced w input =
  (entry w).Registry.run ~opts:(Exec.make_opts ~latency:(latency input) ()) ~attack
    input.inst

(* Counts gathered from outside the library during traced Downloads. *)
type tally = { mutable events : int; mutable deliveries : int; mutable queries : int }

let tally = { events = 0; deliveries = 0; queries = 0 }

let reset_tally () =
  tally.events <- 0;
  tally.deliveries <- 0;
  tally.queries <- 0;
  Counting.reset ()

let observe (o : Sim.obs) =
  tally.events <- tally.events + 1;
  match o.Sim.obs_kind with
  | Sim.Obs_deliver -> tally.deliveries <- tally.deliveries + 1
  | Sim.Obs_start | Sim.Obs_crash | Sim.Obs_query_reply | Sim.Obs_wake -> ()

(* The instance's source, metered: every query effect passes through here. *)
let metered_source (inst : Problem.instance) =
  let query = Data_source.query_fn (Data_source.create ~k:inst.Problem.k inst.Problem.x) in
  fun ~peer i ->
    tally.queries <- tally.queries + 1;
    query ~peer i

(* [traced_runner w ~sample]: the workload's registry core instantiated over
   [Counting.Make (Sim_transport)]; [sample] only sizes attack parameters,
   which are equal across a workload's inputs. *)
let traced_runner w ~sample =
  let core = (entry w).Registry.core ~attack sample.inst in
  let module C = (val core : Transport.CORE) in
  let module ST = Dr_core.Sim_transport.Make (C.Msg) in
  let module W = Counting.Make (C.Msg) (ST) in
  let module P = C.Process (W) in
  fun input ->
    let inst = input.inst in
    let opts =
      Exec.make_opts ~latency:(latency input) ~observer:observe
        ~query_override:(metered_source inst) ()
    in
    Exec.finish ~protocol:C.name inst (ST.run_sim (Exec.build_config inst opts) (P.run inst))

(* One net Download: forked peers, an in-process source server. Verified
   like a simulator Download, and also every honest peer process must have
   completed. *)
let run_net w input =
  let core = (entry w).Registry.core ~attack input.inst in
  Dr_net.Runner.run_detailed ~timeout:60. core input.inst

let net_verified w input (r, outcomes) =
  let honest_completed = ref true in
  Array.iteri
    (fun i o ->
      match o with
      | Dr_net.Runner.Completed -> ()
      | _ -> if Problem.honest input.inst i then honest_completed := false)
    outcomes;
  verified w input.inst r && !honest_completed

(* ------------------------------------------------------------------ *)
(* The check campaign                                                 *)
(* ------------------------------------------------------------------ *)

(* The campaign's instance pool: k fixed, every admissible fault count. *)
let check_pool w = List.init w.shape.t (fun i -> (w.shape.k, w.shape.n, i + 1))
let check_budget = 200

(* [campaign_target w ~traced ~on_exec]: the registry target, re-assembled
   so each execution can be timed (and, when [traced], counted). The
   untraced target forwards to [Check.of_registry]'s own runner; the traced
   one rebuilds the same options with the counting observer composed in
   front of the campaign's probe and a metered source. *)
let campaign_target w ~traced ~on_exec =
  let base = Check.of_registry ~pool:(check_pool w) (entry w) in
  let run ?observer ~attack ~crash ~arbiter inst =
    let exec () =
      if not traced then base.Check.run ?observer ~attack ~crash ~arbiter inst
      else
        let observer o =
          observe o;
          match observer with Some f -> f o | None -> ()
        in
        let opts =
          Exec.make_opts ~observer ~crash ~arbiter ~query_override:(metered_source inst) ()
        in
        (entry w).Registry.run ~opts ~attack inst
    in
    let ns, r = Timing.timed exec in
    on_exec inst ns r;
    r
  in
  { base with Check.run }

let campaign_seed ~seed i = (seed * 7919) + i

(* Plan parameters the attribution needs: (segments, cycles). *)
let plan w =
  let s = w.shape in
  match s.protocol with
  | "byz-multicycle" -> Dr_core.Byz_multicycle.plan ~k:s.k ~n:s.n ~t:s.t
  | _ ->
    let segs, _rho = Dr_core.Byz_2cycle.plan ~k:s.k ~n:s.n ~t:s.t in
    (segs, if segs = 1 then 1 else 2)
