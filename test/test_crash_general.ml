(* Tests for Algorithm 2 (crash-general), the paper's main crash-fault
   result: any beta < 1, optimal-order query complexity. *)

open Dr_core
module Bitarray = Dr_source.Bitarray
module Fault = Dr_adversary.Fault
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let instance ?seed ?b ~k ~n ~t () = Problem.random_instance ?seed ?b ~k ~n ~t ()

let assert_ok name report =
  if not report.Problem.ok then
    Alcotest.failf "%s: expected success, got %a" name Problem.pp_report report

let jitter seed = Latency.jittered (Dr_engine.Prng.create seed)

let test_no_crash_optimal () =
  let k = 10 and n = 1000 in
  let inst = instance ~k ~n ~t:0 () in
  let r = Exec.run_core (Crash_general.core ()) inst in
  assert_ok "no crash" r;
  checki "Q = n/k" (n / k) r.Problem.q_max

let test_silent_crashes () =
  let inst = instance ~k:8 ~n:240 ~t:3 () in
  let opts = Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0) default) in
  assert_ok "silent" (Exec.run_core ~opts (Crash_general.core ()) inst)

let test_partial_broadcast_sweep () =
  for after_sends = 0 to 6 do
    let inst = instance ~seed:(Int64.of_int after_sends) ~k:8 ~n:120 ~t:3 () in
    let opts =
      Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends) default)
    in
    assert_ok
      (Printf.sprintf "partial %d" after_sends)
      (Exec.run_core ~opts (Crash_general.core ()) inst)
  done

let test_staggered_crashes () =
  (* One crash per phase: the schedule that forces repeated reassignment. *)
  let inst = instance ~k:9 ~n:270 ~t:4 () in
  let opts =
    Exec.(with_crash (Crash_plan.staggered inst.Problem.fault ~first:0.5 ~gap:4.0) default)
  in
  assert_ok "staggered" (Exec.run_core ~opts (Crash_general.core ()) inst)

let test_crash_after_queries () =
  (* Faulty peers pay for queries and die before sharing. *)
  let inst = instance ~k:6 ~n:120 ~t:2 () in
  let opts = Exec.(with_crash (Crash_plan.after_queries inst.Problem.fault 5) default) in
  assert_ok "after queries" (Exec.run_core ~opts (Crash_general.core ()) inst)

let test_majority_crash () =
  (* beta = 3/4: a crash majority, which no Byzantine protocol could take. *)
  let inst = instance ~k:8 ~n:160 ~t:6 () in
  let opts = Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:2) default) in
  assert_ok "beta=3/4" (Exec.run_core ~opts (Crash_general.core ()) inst)

let test_all_but_one_crash () =
  let k = 6 in
  let inst = instance ~k ~n:60 ~t:(k - 1) () in
  let opts = Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0) default) in
  let r = Exec.run_core ~opts (Crash_general.core ()) inst in
  assert_ok "t = k-1" r;
  (* The lone survivor ends up querying everything. *)
  checki "survivor queries n" 60 r.Problem.q_max

let test_single_peer () =
  let inst = instance ~k:1 ~n:32 ~t:0 () in
  let r = Exec.run_core (Crash_general.core ()) inst in
  assert_ok "k=1" r;
  checki "queries all" 32 r.Problem.q_max

let test_query_bound () =
  (* Q <= n/(gamma k) + n/k + slack even under adversarial crashes. *)
  let k = 10 and n = 2000 and t = 5 in
  let inst = instance ~k ~n ~t () in
  let opts = Exec.(with_crash (Crash_plan.staggered inst.Problem.fault ~first:1.0 ~gap:3.0) default) in
  let r = Exec.run_core ~opts (Crash_general.core ()) inst in
  assert_ok "bound run" r;
  let gamma = float_of_int (k - t) /. float_of_int k in
  let bound =
    int_of_float (float_of_int n /. (gamma *. float_of_int k)) + (n / k) + (2 * k)
  in
  checkb (Printf.sprintf "Q=%d <= %d" r.Problem.q_max bound) true (r.Problem.q_max <= bound)

let test_jitter_and_crashes_sweep () =
  List.iter
    (fun seed ->
      let inst = instance ~seed ~k:7 ~n:84 ~t:3 () in
      let opts =
        Exec.default
        |> Exec.with_latency (jitter seed)
        |> Exec.with_crash
             (Crash_plan.staggered inst.Problem.fault ~first:0.3 ~gap:1.7)
      in
      assert_ok
        (Printf.sprintf "seed %Ld" seed)
        (Exec.run_core ~opts (Crash_general.core ()) inst))
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L; 9L; 10L ]

let test_slow_peers_not_crashed () =
  (* Declared-faulty peers are merely slow; protocol must neither block on
     them nor be confused by their late replies. *)
  let inst = instance ~k:6 ~n:90 ~t:2 () in
  let slow i = Fault.is_faulty inst.Problem.fault i in
  let opts = Exec.(with_latency (Latency.targeted ~slow ~delay:200.) default) in
  assert_ok "slow peers" (Exec.run_core ~opts (Crash_general.core ()) inst)

let test_fast_path_correct_both_ways () =
  let inst = instance ~k:6 ~n:120 ~t:2 () in
  let opts = Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:3) default) in
  assert_ok "fast path on" (Exec.run_core ~opts (Crash_general.core ~fast_path:true ()) inst);
  assert_ok "fast path off" (Exec.run_core ~opts (Crash_general.core ~fast_path:false ()) inst)

(* Theorem 2.13's scenario: peer 0 is honest but slow — slow enough to be
   "missing" in phase 1 for everyone, and slowest of all towards peer 1.
   Reports about peer 0 carry its whole share, so under size-proportional
   latencies they arrive late; the fast path releases the stage-3 wait as
   soon as peer 0's own reply lands instead. *)
let fast_path_scenario () =
  let k = 8 in
  let fault = Fault.choose ~k (Fault.Explicit [ 0; 7 ]) in
  let x = Bitarray.random (Dr_engine.Prng.create 77L) 8192 in
  let inst = Problem.make ~k ~x fault in
  let latency =
    Latency.per_message (fun ~src ~dst ~size_bits:_ -> if src = 0 && dst = 1 then 3.0 else 0.5)
  in
  let crash i = if i = 7 then Dr_engine.Sim.After_sends 0 else Dr_engine.Sim.Never in
  ( inst,
    Exec.default
    |> Exec.with_latency latency
    |> Exec.with_link_rate (float_of_int inst.Problem.b)
    |> Exec.with_crash crash )

let test_fast_path_improves_time_with_slow_responder () =
  let inst, opts = fast_path_scenario () in
  let fast = Exec.run_core ~opts (Crash_general.core ~fast_path:true ()) inst in
  let slow = Exec.run_core ~opts (Crash_general.core ~fast_path:false ()) inst in
  assert_ok "fast" fast;
  assert_ok "slow" slow;
  checkb
    (Printf.sprintf "fast T (%.1f) strictly < slow T (%.1f)" fast.Problem.time slow.Problem.time)
    true
    (fast.Problem.time +. 5.0 < slow.Problem.time)

let test_phase_bound_respected () =
  List.iter
    (fun (k, t, expect_max) ->
      let got = Crash_general.phases_upper_bound ~k ~t in
      checkb (Printf.sprintf "phases(%d,%d)=%d <= %d" k t got expect_max) true (got <= expect_max))
    [ (10, 0, 2); (10, 5, 6); (10, 9, 25); (100, 50, 10) ]

let test_message_bound_respected () =
  let inst = instance ~k:6 ~n:200 ~b:96 ~t:2 () in
  let opts = Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:1) default) in
  let r = Exec.run_core ~opts (Crash_general.core ()) inst in
  assert_ok "small B" r;
  checkb
    (Printf.sprintf "max msg %d <= B=96" r.Problem.max_msg_bits)
    true (r.Problem.max_msg_bits <= 96)

let test_deterministic_report () =
  let inst = instance ~seed:5L ~k:7 ~n:140 ~t:3 () in
  let opts =
    Exec.default
    |> Exec.with_latency (jitter 5L)
    |> Exec.with_crash (Crash_plan.staggered inst.Problem.fault ~first:0.5 ~gap:2.0)
  in
  let a = Exec.run_core ~opts (Crash_general.core ()) inst in
  (* Rebuild opts: the jitter PRNG is stateful, so a fresh one is needed. *)
  let opts =
    Exec.default
    |> Exec.with_latency (jitter 5L)
    |> Exec.with_crash (Crash_plan.staggered inst.Problem.fault ~first:0.5 ~gap:2.0)
  in
  let b = Exec.run_core ~opts (Crash_general.core ()) inst in
  checkb "same verdict" true (a.Problem.ok = b.Problem.ok);
  checki "same Q" a.Problem.q_max b.Problem.q_max;
  checki "same M" a.Problem.msgs b.Problem.msgs;
  checkb "same T" true (a.Problem.time = b.Problem.time)

let test_supports () =
  checkb "rejects t=k" true
    (match
       Registry.admits (Registry.find_exn "crash-general")
         { (instance ~k:4 ~n:16 ~t:0 ()) with Problem.fault = Fault.choose ~k:4 (Fault.First 4) }
     with
    | Error _ -> true
    | Ok () -> false);
  checkb "accepts t=k-1" true
    (match Registry.admits (Registry.find_exn "crash-general") (instance ~k:4 ~n:16 ~t:3 ()) with
    | Ok () -> true
    | Error _ -> false)

let suite =
  [
    ("no crash: optimal Q", `Quick, test_no_crash_optimal);
    ("silent crashes", `Quick, test_silent_crashes);
    ("partial broadcast sweep", `Quick, test_partial_broadcast_sweep);
    ("staggered crashes", `Quick, test_staggered_crashes);
    ("crash after queries", `Quick, test_crash_after_queries);
    ("crash majority (beta=3/4)", `Quick, test_majority_crash);
    ("all but one crash", `Quick, test_all_but_one_crash);
    ("single peer", `Quick, test_single_peer);
    ("query bound O(n/(gamma k))", `Quick, test_query_bound);
    ("jitter x crash sweep", `Quick, test_jitter_and_crashes_sweep);
    ("slow peers, no crash", `Quick, test_slow_peers_not_crashed);
    ("fast path correct both ways", `Quick, test_fast_path_correct_both_ways);
    ("fast path helps T", `Quick, test_fast_path_improves_time_with_slow_responder);
    ("phase bound", `Quick, test_phase_bound_respected);
    ("message bound respected", `Quick, test_message_bound_respected);
    ("deterministic report", `Quick, test_deterministic_report);
    ("supports", `Quick, test_supports);
  ]
