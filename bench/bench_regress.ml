(* The continuous benchmark harness: a fixed matrix of engine and protocol
   workloads, timed with the wall clock and written as machine-readable
   BENCH_engine.json / BENCH_protocols.json (schema: Dr_stats.Bench_io).

   Usage:
     dune exec bench/bench_regress.exe                 # full matrix, repo root
     dune exec bench/bench_regress.exe -- --smoke      # tiny sizes (CI gate)
     dune exec bench/bench_regress.exe -- --out-dir /tmp --repeats 9

   Compare two runs with dr_bench_diff:
     dune exec bin/dr_bench_diff.exe -- BENCH_engine.old.json BENCH_engine.json *)

open Dr_core
module Bench_io = Dr_stats.Bench_io
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan
module Prng = Dr_engine.Prng

type profile = { repeats : int; storm_k : int; storm_rounds : int; sim_seeds : int }

let full = { repeats = 7; storm_k = 64; storm_rounds = 20; sim_seeds = 24 }
let smoke = { repeats = 3; storm_k = 16; storm_rounds = 2; sim_seeds = 4 }

let now () = Unix.gettimeofday ()

(* One timed sample of [f], returning work-units per second. [f] returns the
   number of work units it performed. *)
let rate_sample f =
  let t0 = now () in
  let units = f () in
  let dt = now () -. t0 in
  if dt <= 0. then float_of_int units /. 1e-9 else float_of_int units /. dt

let samples ~repeats f = List.init repeats (fun _ -> rate_sample f)

(* ------------------------------------------------------------------ *)
(* Engine micro-bench: raw event-loop throughput in events/sec.       *)
(* An all-to-all broadcast round: every peer broadcasts, then drains  *)
(* k-1 receives — the densest delivery pattern the protocols create.  *)
(* ------------------------------------------------------------------ *)

module Storm_msg = struct
  type t = int

  let size_bits _ = 64
  let tag _ = "x"
end

module Storm = Dr_engine.Sim.Make (Storm_msg)

let storm_events ~k ~rounds () =
  let cfg = Dr_engine.Sim.default_config ~k ~query_bit:(fun ~peer:_ _ -> false) in
  let total = ref 0 in
  for _ = 1 to rounds do
    let outcome =
      Storm.run cfg (fun i ->
          Storm.broadcast i;
          for _ = 1 to k - 1 do
            ignore (Storm.receive ())
          done;
          i)
    in
    assert (outcome.Dr_engine.Sim.status = Dr_engine.Sim.Completed);
    total := !total + outcome.Dr_engine.Sim.events
  done;
  !total

(* Same workload under a live trace sink, to keep the tracing path honest
   (it may cost, but must not regress silently). *)
let storm_traced_events ~k ~rounds () =
  let total = ref 0 in
  for _ = 1 to rounds do
    let trace = Dr_engine.Trace.create () in
    let cfg =
      {
        (Dr_engine.Sim.default_config ~k ~query_bit:(fun ~peer:_ _ -> false)) with
        Dr_engine.Sim.trace = Some trace;
      }
    in
    let outcome =
      Storm.run cfg (fun i ->
          Storm.broadcast i;
          for _ = 1 to k - 1 do
            ignore (Storm.receive ())
          done;
          i)
    in
    total := !total + outcome.Dr_engine.Sim.events
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Protocol end-to-end benches: whole seeded simulations per second,  *)
(* fanned out over domains exactly as the Monte-Carlo experiments do. *)
(* ------------------------------------------------------------------ *)

let crash_general_sims ~seeds () =
  let ok =
    Dr_stats.Par.map
      (fun seed ->
        let inst = Problem.random_instance ~seed ~k:16 ~n:2048 ~t:6 () in
        let opts =
          Exec.default
          |> Exec.with_latency (Latency.jittered (Prng.create seed))
          |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0)
        in
        (Exec.run_core ~opts (Crash_general.core ()) inst).Problem.ok)
      (List.init seeds (fun i -> Int64.of_int (i + 1)))
  in
  assert (List.for_all Fun.id ok);
  seeds

let byz_2cycle_sims ~seeds () =
  let ok =
    Dr_stats.Par.map
      (fun seed ->
        let inst =
          Problem.random_instance ~seed ~model:Problem.Byzantine ~k:64 ~n:4096 ~t:8 ()
        in
        let opts = Exec.with_latency (Latency.jittered (Prng.create seed)) Exec.default in
        (Exec.run_core ~opts (Byz_2cycle.core ~attack:Byz_2cycle.Near_miss ()) inst).Problem.ok)
      (List.init seeds (fun i -> Int64.of_int (i + 1)))
  in
  ignore ok;
  seeds

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let run_suite ~out_dir ~filename ~suite benches =
  let file = { Bench_io.suite; benches } in
  let path = Filename.concat out_dir filename in
  Bench_io.write ~path file;
  Printf.printf "wrote %s\n" path;
  List.iter
    (fun (b : Bench_io.bench) ->
      Printf.printf "  %-28s median %12.0f %s  (IQR %.0f..%.0f over %d runs)\n" b.Bench_io.name
        b.Bench_io.median b.Bench_io.unit_ b.Bench_io.iqr_lo b.Bench_io.iqr_hi b.Bench_io.runs)
    benches

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let p = if List.mem "--smoke" args then smoke else full in
  let rec opt_value key = function
    | [] -> None
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt_value key rest
  in
  let out_dir = Option.value ~default:"." (opt_value "--out-dir" args) in
  let p =
    match opt_value "--repeats" args with
    | Some r -> { p with repeats = int_of_string r }
    | None -> p
  in
  (* Warm-up: fault in code paths and stabilize allocator state before timing. *)
  ignore (storm_events ~k:8 ~rounds:1 ());
  let engine =
    [
      Bench_io.of_samples ~name:"engine/message-storm" ~unit_:"events_per_sec"
        (samples ~repeats:p.repeats (storm_events ~k:p.storm_k ~rounds:p.storm_rounds));
      Bench_io.of_samples ~name:"engine/message-storm-traced" ~unit_:"events_per_sec"
        (samples ~repeats:p.repeats (storm_traced_events ~k:p.storm_k ~rounds:p.storm_rounds));
    ]
  in
  run_suite ~out_dir ~filename:"BENCH_engine.json" ~suite:"engine" engine;
  let protocols =
    [
      Bench_io.of_samples ~name:"protocols/crash-general" ~unit_:"sims_per_sec"
        (samples ~repeats:p.repeats (crash_general_sims ~seeds:p.sim_seeds));
      Bench_io.of_samples ~name:"protocols/byz-2cycle" ~unit_:"sims_per_sec"
        (samples ~repeats:p.repeats (byz_2cycle_sims ~seeds:p.sim_seeds));
    ]
  in
  run_suite ~out_dir ~filename:"BENCH_protocols.json" ~suite:"protocols" protocols
