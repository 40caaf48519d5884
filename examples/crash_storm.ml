(* Crash storm: Algorithm 2 riding out a 75% crash rate.

   24 peers download 8192 bits while 18 of them die — one per phase, each
   mid-broadcast — under randomized asynchronous delays. The survivors still
   terminate with the exact array, paying O(n/(gamma k)) queries each. The
   example also shows the Theorem 2.13 fast path trimming the completion
   time under bandwidth-proportional latencies.

   Run with:  dune exec examples/crash_storm.exe *)

open Dr_core
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan

let () =
  let k = 24 and n = 8192 and t = 18 in
  let inst = Problem.random_instance ~seed:99L ~k ~n ~t () in
  Printf.printf "k=%d peers, n=%d bits, t=%d crashes (beta = %.2f)\n\n" k n t (Problem.beta inst);

  (* A storm: staggered deaths, one every couple of time units, each after a
     partial broadcast. *)
  let storm =
    Exec.default
    |> Exec.with_latency (Latency.jittered (Dr_engine.Prng.create 3L))
    |> Exec.with_crash (Crash_plan.staggered inst.Problem.fault ~first:0.5 ~gap:2.0)
  in
  let r = Exec.run_core ~opts:storm (Crash_general.core ()) inst in
  Format.printf "storm result: %a@.@." Problem.pp_report r;
  assert r.Problem.ok;
  let gamma = Problem.gamma inst in
  Printf.printf "Q = %d vs theory O(n/(gamma k)) = %.0f and naive n = %d\n\n" r.Problem.q_max
    (float_of_int n /. (gamma *. float_of_int k))
    n;

  (* The Theorem 2.13 ablation. Links now transmit at B bits per time unit,
     so a report carrying a whole missing share is genuinely slow; peer 0 is
     alive but slow towards peer 1, and peer 7 is silently crashed. The fast
     path lets peer 1 continue on peer 0's own late reply instead of waiting
     for everybody's long report about it. *)
  let inst2 =
    Problem.make ~seed:77L ~k:8
      ~x:(Dr_source.Bitarray.random (Dr_engine.Prng.create 77L) 8192)
      (Dr_adversary.Fault.choose ~k:8 (Dr_adversary.Fault.Explicit [ 0; 7 ]))
  in
  let latency =
    Latency.per_message (fun ~src ~dst ~size_bits:_ -> if src = 0 && dst = 1 then 3.0 else 0.5)
  in
  let crash i = if i = 7 then Dr_engine.Sim.After_sends 0 else Dr_engine.Sim.Never in
  let opts =
    Exec.default
    |> Exec.with_latency latency
    |> Exec.with_link_rate (float_of_int inst2.Problem.b)
    |> Exec.with_crash crash
  in
  let t_fast = (Exec.run_core ~opts (Crash_general.core ~fast_path:true ()) inst2).Problem.time in
  let t_slow = (Exec.run_core ~opts (Crash_general.core ~fast_path:false ()) inst2).Problem.time in
  Printf.printf "time with Theorem 2.13 fast path: %.1f; without: %.1f\n" t_fast t_slow;
  assert (t_fast < t_slow)
