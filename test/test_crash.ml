(* Tests for the crash-fault Download protocols: naive, balanced,
   Algorithm 1 (single crash) and Algorithm 2 (any number of crashes). *)

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

(* ------------------------------------------------------------------ *)
(* Naive                                                              *)
(* ------------------------------------------------------------------ *)

let test_naive_correct () =
  let inst = instance ~k:5 ~n:100 ~t:0 () in
  let r = Exec.run_core (Naive.core ()) inst in
  assert_ok "naive" r;
  checki "Q = n" 100 r.Problem.q_max;
  checki "no messages" 0 r.Problem.msgs

let test_naive_survives_byzantine_majority () =
  (* Naive ignores the network entirely, so any fault pattern is fine. *)
  let inst = instance ~k:6 ~n:64 ~t:4 () in
  let inst = { inst with Problem.model = Problem.Byzantine } in
  assert_ok "naive byz" (Exec.run_core (Naive.core ()) inst)

let test_naive_survives_crashes () =
  let inst = instance ~k:4 ~n:32 ~t:2 () in
  let opts = Exec.(with_crash (Crash_plan.staggered inst.Problem.fault ~first:0.0 ~gap:0.) default) in
  let r = Exec.run_core ~opts (Naive.core ()) inst in
  assert_ok "naive with crashes" r

(* ------------------------------------------------------------------ *)
(* Balanced (fault-free)                                              *)
(* ------------------------------------------------------------------ *)

let test_balanced_correct () =
  let inst = instance ~k:8 ~n:256 ~t:0 () in
  let r = Exec.run_core (Balanced.core ()) inst in
  assert_ok "balanced" r;
  checki "Q = n/k" 32 r.Problem.q_max

let test_balanced_unbalanced_sizes () =
  (* n not divisible by k. *)
  let inst = instance ~k:7 ~n:100 ~t:0 () in
  let r = Exec.run_core (Balanced.core ()) inst in
  assert_ok "balanced uneven" r;
  checkb "Q <= ceil(n/k)" true (r.Problem.q_max <= 15)

let test_balanced_more_peers_than_bits () =
  let inst = instance ~k:10 ~n:4 ~t:0 () in
  assert_ok "k > n" (Exec.run_core (Balanced.core ()) inst)

let test_balanced_single_peer () =
  let inst = instance ~k:1 ~n:16 ~t:0 () in
  let r = Exec.run_core (Balanced.core ()) inst in
  assert_ok "k = 1" r;
  checki "queries all" 16 r.Problem.q_max

let test_balanced_jittered_latency () =
  let inst = instance ~k:6 ~n:120 ~t:0 () in
  let opts = Exec.(with_latency (jitter 3L) default) in
  assert_ok "balanced under jitter" (Exec.run_core ~opts (Balanced.core ()) inst)

let test_balanced_small_b_packetizes () =
  let inst = instance ~k:4 ~n:64 ~b:80 ~t:0 () in
  let r = Exec.run_core (Balanced.core ()) inst in
  assert_ok "packetized" r;
  checkb "respects B" true (r.Problem.max_msg_bits <= 80)

let test_balanced_dies_on_crash () =
  (* Motivation test: balanced deadlocks under a single crash. *)
  let inst = instance ~k:4 ~n:32 ~t:1 () in
  let inst = { inst with Problem.fault = Fault.choose ~k:4 (Fault.Explicit [ 2 ]) } in
  let opts =
    Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0) default)
  in
  let r = Exec.run_core ~opts (Balanced.core ()) inst in
  checkb "not ok" false r.Problem.ok;
  checkb "deadlocked" true
    (match r.Problem.status with Dr_engine.Sim.Deadlock _ -> true | _ -> false)

let test_balanced_supports () =
  checkb "rejects t>0" true
    (match Registry.admits (Registry.find_exn "balanced") (instance ~k:4 ~n:16 ~t:1 ()) with
    | Error _ -> true
    | Ok () -> false)

(* ------------------------------------------------------------------ *)
(* Crash-single (Algorithm 1)                                          *)
(* ------------------------------------------------------------------ *)

let test_crash_single_no_crash () =
  let inst = instance ~k:6 ~n:120 ~t:1 () in
  let r = Exec.run_core (Crash_single.core ()) inst in
  assert_ok "no actual crash" r

let test_crash_single_silent_peer () =
  (* The faulty peer crashes before sending anything. *)
  let inst = instance ~k:6 ~n:120 ~t:1 () in
  let opts = Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0) default) in
  let r = Exec.run_core ~opts (Crash_single.core ()) inst in
  assert_ok "silent crash" r

let test_crash_single_partial_broadcast () =
  (* The faulty peer dies mid-broadcast: some peers heard it, some did not —
     the asymmetric case stages 2 and 3 exist for. *)
  for after_sends = 1 to 4 do
    let inst = instance ~k:6 ~n:120 ~t:1 () in
    let opts =
      Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends) default)
    in
    let r = Exec.run_core ~opts (Crash_single.core ()) inst in
    assert_ok (Printf.sprintf "partial broadcast (%d sends)" after_sends) r
  done

let test_crash_single_late_crash () =
  (* Crash after the whole phase 1 share went out. *)
  let inst = instance ~k:5 ~n:100 ~t:1 () in
  let opts = Exec.(with_crash (Crash_plan.staggered inst.Problem.fault ~first:1.5 ~gap:0.) default) in
  assert_ok "late crash" (Exec.run_core ~opts (Crash_single.core ()) inst)

let test_crash_single_each_victim () =
  (* Whichever peer crashes, the others still download. *)
  for victim = 0 to 4 do
    let fault = Fault.choose ~k:5 (Fault.Explicit [ victim ]) in
    let x = Bitarray.random (Dr_engine.Prng.create 31L) 60 in
    let inst = Problem.make ~k:5 ~x fault in
    let opts = Exec.(with_crash (Crash_plan.mid_broadcast fault ~after_sends:2) default) in
    assert_ok (Printf.sprintf "victim %d" victim) (Exec.run_core ~opts (Crash_single.core ()) inst)
  done

let test_crash_single_query_bound () =
  (* Q <= ceil(n/k) + ceil(n/k / (k-1)) + slack. *)
  let k = 8 and n = 800 in
  let inst = instance ~k ~n ~t:1 () in
  let opts = Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:3) default) in
  let r = Exec.run_core ~opts (Crash_single.core ()) inst in
  assert_ok "bound run" r;
  let bound = ((n + k - 1) / k) + ((n / k / (k - 1)) + 2) in
  checkb (Printf.sprintf "Q=%d <= %d" r.Problem.q_max bound) true (r.Problem.q_max <= bound)

let test_crash_single_no_fault_query_optimal () =
  let k = 10 and n = 1000 in
  let inst = instance ~k ~n ~t:0 () in
  let r = Exec.run_core (Crash_single.core ()) inst in
  assert_ok "fault-free" r;
  checki "Q = n/k exactly" (n / k) r.Problem.q_max

let test_crash_single_jitter_sweep () =
  (* Random asynchrony x crash timing sweep. *)
  List.iter
    (fun seed ->
      let inst = instance ~seed ~k:5 ~n:50 ~t:1 () in
      let opts =
        Exec.default
        |> Exec.with_latency (jitter seed)
        |> Exec.with_crash (Crash_plan.staggered inst.Problem.fault ~first:1.1 ~gap:0.)
      in
      assert_ok
        (Printf.sprintf "jitter seed %Ld" seed)
        (Exec.run_core ~opts (Crash_single.core ()) inst))
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]

let test_crash_single_slow_victim_not_crashed () =
  (* The "faulty" peer never actually crashes, it is just extremely slow:
     peers must not block on it, but its data eventually helps. *)
  let inst = instance ~k:5 ~n:100 ~t:1 () in
  let slow i = Fault.is_faulty inst.Problem.fault i in
  let opts = Exec.(with_latency (Latency.targeted ~slow ~delay:500.) default) in
  let r = Exec.run_core ~opts (Crash_single.core ()) inst in
  assert_ok "slow peer" r

let test_crash_single_two_peers () =
  let inst = instance ~k:2 ~n:10 ~t:1 () in
  let opts = Exec.(with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0) default) in
  let r = Exec.run_core ~opts (Crash_single.core ()) inst in
  assert_ok "k=2" r;
  (* The survivor must fetch everything itself. *)
  checki "survivor queries all" 10 r.Problem.q_max

let test_crash_single_supports () =
  checkb "rejects t=2" true
    (match Registry.admits (Registry.find_exn "crash-single") (instance ~k:6 ~n:16 ~t:2 ()) with
    | Error _ -> true
    | Ok () -> false);
  checkb "accepts t=1" true
    (match Registry.admits (Registry.find_exn "crash-single") (instance ~k:6 ~n:16 ~t:1 ()) with
    | Ok () -> true
    | Error _ -> false)

(* Counter gate for the crash cores, which no benchmark workload runs: one
   warm-up, then 20 runs through [Exec.build_config] + [run_sim] under
   jittered delays and a crash of every faulty peer after its first send.
   The events of the 20 runs are pinned (8,485.45 and 26,465 per run on
   average); minor words per event are bounded. *)
let crash_counters (core : (module Transport.CORE)) ~k ~n ~t =
  let (module C) = core in
  let module ST = Sim_transport.Make (C.Msg) in
  let module P = C.Process (ST) in
  let inst = Problem.random_instance ~seed:7L ~k ~n ~t () in
  let opts =
    Exec.make_opts ~latency:(jitter 3L)
      ~crash:(Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:1)
      ()
  in
  let run () = ST.run_sim (Exec.build_config inst opts) (P.run inst) in
  ignore (run ());
  let runs = 20 in
  let events = ref 0 and completed = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    let outcome = run () in
    if outcome.Dr_engine.Sim.status = Dr_engine.Sim.Completed then incr completed;
    events := !events + outcome.Dr_engine.Sim.events
  done;
  let words = Gc.minor_words () -. before in
  checki "runs completed" runs !completed;
  (!events, words /. float_of_int !events)

let test_crash_counter_gate () =
  List.iter
    (fun (core, k, n, t, want_events, max_words) ->
      let (module C : Transport.CORE) = core in
      let events, per_event = crash_counters core ~k ~n ~t in
      checki (C.name ^ ": events in 20 runs") want_events events;
      checkb
        (Printf.sprintf "%s: %.2f minor words per event <= %g" C.name per_event max_words)
        true (per_event <= max_words))
    [
      (Crash_single.core (), 32, 4096, 1, 169_709, 20.);
      (Crash_general.core (), 32, 4096, 8, 529_300, 440.);
    ]

let suite =
  [
    ("naive correct", `Quick, test_naive_correct);
    ("naive under byzantine majority", `Quick, test_naive_survives_byzantine_majority);
    ("naive under crashes", `Quick, test_naive_survives_crashes);
    ("balanced correct", `Quick, test_balanced_correct);
    ("balanced uneven split", `Quick, test_balanced_unbalanced_sizes);
    ("balanced k > n", `Quick, test_balanced_more_peers_than_bits);
    ("balanced k = 1", `Quick, test_balanced_single_peer);
    ("balanced under jitter", `Quick, test_balanced_jittered_latency);
    ("balanced packetizes", `Quick, test_balanced_small_b_packetizes);
    ("balanced dies on crash (motivation)", `Quick, test_balanced_dies_on_crash);
    ("balanced supports", `Quick, test_balanced_supports);
    ("crash-single: no crash", `Quick, test_crash_single_no_crash);
    ("crash-single: silent peer", `Quick, test_crash_single_silent_peer);
    ("crash-single: partial broadcast", `Quick, test_crash_single_partial_broadcast);
    ("crash-single: late crash", `Quick, test_crash_single_late_crash);
    ("crash-single: every victim", `Quick, test_crash_single_each_victim);
    ("crash-single: query bound", `Quick, test_crash_single_query_bound);
    ("crash-single: fault-free optimal", `Quick, test_crash_single_no_fault_query_optimal);
    ("crash-single: jitter sweep", `Quick, test_crash_single_jitter_sweep);
    ("crash-single: slow not crashed", `Quick, test_crash_single_slow_victim_not_crashed);
    ("crash-single: k=2", `Quick, test_crash_single_two_peers);
    ("crash-single: supports", `Quick, test_crash_single_supports);
    ("crash cores: counter gate", `Quick, test_crash_counter_gate);
  ]
