(* Quickstart: download a 4096-bit array with 12 peers of which 4 may crash,
   under an asynchronous schedule, and inspect the cost.

   Run with:  dune exec examples/quickstart.exe *)

open Dr_core

let () =
  (* 1. Describe the instance: peers, input, faulty set, message bound. *)
  let inst =
    Problem.random_instance ~seed:42L ~k:12 ~n:4096 ~t:4 ()
  in
  Printf.printf "instance: k=%d peers, n=%d bits, t=%d possible crashes (beta=%.2f)\n"
    inst.Problem.k (Problem.n inst) (Problem.t inst) (Problem.beta inst);

  (* 2. Describe the adversary: random finite delays on every link, and every
        faulty peer dies after completing exactly two sends (a partial
        broadcast — the nastiest crash shape). *)
  let opts =
    Exec.default
    |> Exec.with_latency (Dr_adversary.Latency.jittered (Dr_engine.Prng.create 7L))
    |> Exec.with_crash (Dr_adversary.Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:2)
  in

  (* 3. Pick the protocol the paper recommends for this regime and run. *)
  let entry = Select.for_instance inst in
  Printf.printf "selected protocol: %s\n\n" (Registry.name entry);
  let report = entry.Registry.run ~opts inst in
  Format.printf "%a@.@." Problem.pp_report report;

  (* 4. Compare against the two baselines. *)
  let naive = Exec.run_core ~opts (Naive.core ()) inst in
  Printf.printf "queries per peer: %s needs Q=%d, naive needs Q=%d (%.1fx saving)\n"
    (Registry.name entry) report.Problem.q_max naive.Problem.q_max
    (float_of_int naive.Problem.q_max /. float_of_int (max 1 report.Problem.q_max));
  let ideal = (Problem.n inst + inst.Problem.k - 1) / inst.Problem.k in
  Printf.printf "ideal fault-free share would be n/k = %d: the protocol pays %.2fx that\n" ideal
    (float_of_int report.Problem.q_max /. float_of_int ideal);
  assert report.Problem.ok
