(* Byzantine majority: why half matters.

   Below one half Byzantine, the committee protocol downloads correctly at a
   fraction of the naive cost, whatever the attack. At one half and above,
   the paper proves nothing cheaper than "query everything" can work — and
   this example runs the actual mirror constructions from the proofs of
   Theorems 3.1 and 3.2 to show a cheap protocol being fooled.

   Run with:  dune exec examples/byzantine_majority.exe *)

open Dr_core
module Det_lower = Dr_lowerbound.Det_lower
module Rand_lower = Dr_lowerbound.Rand_lower

let () =
  (* --- Safe regime: beta = 4/9 < 1/2, worst attack in the catalog. --- *)
  let inst = Problem.random_instance ~seed:5L ~model:Problem.Byzantine ~k:9 ~n:1024 ~t:4 () in
  let opts =
    Exec.with_latency
      (Dr_adversary.Latency.rushing
         ~fast:(Dr_adversary.Fault.is_faulty inst.Problem.fault)
         ~eps:0.01)
      Exec.default
  in
  let r = Exec.run_core ~opts (Committee.core ~attack:Committee.Collude ()) inst in
  Format.printf "beta = 4/9 (minority), colluding + rushing Byzantine members:@.  %a@.@."
    Problem.pp_report r;
  assert r.Problem.ok;

  (* --- At the boundary: the deterministic mirror construction. --- *)
  print_endline "beta >= 1/2: Theorem 3.1's two-execution construction against a cheap protocol:";
  let cheap ?opts inst =
    Exec.run_core ?opts (Committee.core ~committee_size:6 ~threshold:2 ()) inst
  in
  (match Det_lower.demonstrate ~run:cheap ~f_set:[ 5; 6; 7 ] ~b:72 ~k:8 ~n:256 () with
  | Error e -> failwith e
  | Ok ev ->
    Printf.printf
      "  victim peer %d queried only %d/256 bits in the crash execution,\n\
      \  so the adversary hides a flip at bit %d, corrupts %d peers to replay\n\
      \  the all-zeros world, and the victim outputs the wrong array: fooled=%b\n\
      \  (its two views are bit-identical: %b)\n\n"
      ev.Det_lower.victim ev.Det_lower.e1_victim_queries ev.Det_lower.hidden_bit
      (List.length ev.Det_lower.corrupted) ev.Det_lower.victim_fooled
      ev.Det_lower.views_identical;
    assert (ev.Det_lower.victim_fooled && ev.Det_lower.views_identical));

  (* --- And the randomized version: failure probability ~ 1 - q/n. --- *)
  print_endline "Theorem 3.2 against the randomized 2-cycle protocol (beta = 16/21):";
  let run ?opts inst =
    Exec.run_core ?opts (Byz_2cycle.core ~attack:Byz_2cycle.Mirror ~segments:3 ~rho:1 ()) inst
  in
  let seeds = List.init 100 (fun i -> Int64.of_int (i + 1)) in
  let res = Rand_lower.attack ~run ~f_count:4 ~k:21 ~n:512 ~seeds () in
  Printf.printf
    "  victim spends q=%.0f of n=%d queries per run; theory demands failure >= %.2f;\n\
    \  measured failure rate over %d seeds: %.2f\n"
    res.Rand_lower.q_mean res.Rand_lower.n res.Rand_lower.predicted_failure_floor
    res.Rand_lower.runs res.Rand_lower.failure_rate;
  assert (res.Rand_lower.failure_rate >= res.Rand_lower.predicted_failure_floor -. 0.15)
