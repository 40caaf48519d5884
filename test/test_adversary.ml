(* Tests for the adversary toolbox: fault-set selection, latency policies
   and crash schedules. *)

open Dr_adversary
module Prng = Dr_engine.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let check_ints = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)
(* ------------------------------------------------------------------ *)

let test_fault_first_last () =
  let f = Fault.choose ~k:6 (Fault.First 2) in
  check_ints "first" [ 0; 1 ] f.Fault.faulty_ids;
  let l = Fault.choose ~k:6 (Fault.Last 2) in
  check_ints "last" [ 4; 5 ] l.Fault.faulty_ids

let test_fault_spread () =
  let f = Fault.choose ~k:9 (Fault.Spread 3) in
  check_ints "spread" [ 0; 3; 6 ] f.Fault.faulty_ids;
  checki "count" 3 f.Fault.t_count

let test_fault_none_and_all_but_one () =
  let none = Fault.choose ~k:4 Fault.None_faulty in
  checki "none" 0 none.Fault.t_count;
  checkf "beta 0" 0. (Fault.beta none);
  let most = Fault.choose ~k:4 (Fault.First 3) in
  checkf "beta 3/4" 0.75 (Fault.beta most);
  checkf "gamma 1/4" 0.25 (Fault.gamma most)

let test_fault_explicit_dedup () =
  let f = Fault.choose ~k:5 (Fault.Explicit [ 3; 1; 3 ]) in
  check_ints "sorted, deduped" [ 1; 3 ] f.Fault.faulty_ids

let test_fault_random_deterministic () =
  let mk () = (Fault.choose ~k:20 (Fault.Random (5, Prng.create 9L))).Fault.faulty_ids in
  check_ints "reproducible" (mk ()) (mk ());
  checki "five chosen" 5 (List.length (mk ()))

let test_fault_predicates () =
  let f = Fault.choose ~k:4 (Fault.Explicit [ 2 ]) in
  checkb "faulty" true (Fault.is_faulty f 2);
  checkb "honest" true (Fault.is_honest f 0);
  checki "honest count" 3 (Fault.honest_count f);
  check_ints "honest ids" [ 0; 1; 3 ] (List.filter (Fault.is_honest f) [ 0; 1; 2; 3 ])

let test_fault_rejects_bad () =
  Alcotest.check_raises "too many" (Invalid_argument "Fault.choose: bad fault count") (fun () ->
      ignore (Fault.choose ~k:3 (Fault.First 4)));
  Alcotest.check_raises "out of range" (Invalid_argument "Fault.choose: peer id out of range")
    (fun () -> ignore (Fault.choose ~k:3 (Fault.Explicit [ 5 ])))

(* ------------------------------------------------------------------ *)
(* Latency                                                             *)
(* ------------------------------------------------------------------ *)

(* One message's delay under a policy: a send effect of one destination. *)
let delay (fn : Latency.fn) ~src ~dst ~size_bits =
  let delays = [| nan |] in
  fn ~src ~size_bits ~dsts:[| dst |] 1 delays;
  delays.(0)

let test_latency_unit_and_constant () =
  checkf "unit" 1. (delay Latency.unit_delay ~src:0 ~dst:1 ~size_bits:100);
  checkf "constant" 2.5
    (delay (Latency.size_proportional ~per_bit:0. ~floor:2.5) ~src:3 ~dst:4 ~size_bits:1)

(* [jittered] is the uniform policy: (0, 1], and both halves get hit. *)
let test_latency_uniform_range () =
  let fn = Latency.jittered (Prng.create 2L) in
  let low = ref 0 in
  for _ = 1 to 500 do
    let d = delay fn ~src:0 ~dst:1 ~size_bits:8 in
    checkb "in (0,1]" true (d > 0. && d <= 1.);
    if d <= 0.5 then incr low
  done;
  checkb "spread over the range" true (!low > 100 && !low < 400)

let test_latency_targeted () =
  let fn = Latency.targeted ~slow:(fun i -> i = 7) ~delay:99. in
  checkf "slow src" 99. (delay fn ~src:7 ~dst:0 ~size_bits:1);
  checkf "fast src" 1. (delay fn ~src:0 ~dst:7 ~size_bits:1)

let test_latency_targeted_links () =
  let fn = Latency.targeted ~slow:(fun src -> src = 1) ~delay:50. in
  checkf "slow link" 50. (delay fn ~src:1 ~dst:2 ~size_bits:1);
  checkf "reverse fast" 1. (delay fn ~src:2 ~dst:1 ~size_bits:1)

let test_latency_rushing () =
  let fn = Latency.rushing ~fast:(fun i -> i < 2) ~eps:0.01 in
  checkf "byz fast" 0.01 (delay fn ~src:1 ~dst:5 ~size_bits:1);
  checkf "honest slow" 1. (delay fn ~src:5 ~dst:1 ~size_bits:1)

(* In (0, 1], and a batch of destinations gets the draws of one call per
   destination. *)
let test_latency_jittered_positive () =
  let fn = Latency.jittered (Prng.create 3L) in
  for _ = 1 to 500 do
    let d = delay fn ~src:0 ~dst:1 ~size_bits:1 in
    checkb "in (0,1]" true (d > 0. && d <= 1.)
  done;
  let one = Latency.jittered (Prng.create 4L) and batch = Latency.jittered (Prng.create 4L) in
  let dsts = Array.init 9 succ in
  let delays = Array.make 9 nan in
  batch ~src:0 ~size_bits:1 ~dsts 9 delays;
  Array.iteri
    (fun i dst -> checkb "batch = one at a time" true (delays.(i) = delay one ~src:0 ~dst ~size_bits:1))
    dsts

(* The adapter asks for each destination in order and stops after a delay
   the engine rejects. *)
let test_latency_per_message () =
  let asked = ref [] in
  let fn =
    Latency.per_message (fun ~src ~dst ~size_bits ->
        asked := dst :: !asked;
        if dst = 4 then -1. else float_of_int ((10 * src) + dst + size_bits))
  in
  let delays = Array.make 6 0. in
  fn ~src:1 ~size_bits:100 ~dsts:[| 0; 2; 3; 4; 5 |] 5 delays;
  checkb "asked in order, up to the bad one" true (List.rev !asked = [ 0; 2; 3; 4 ]);
  checkb "delays written up to the bad one" true
    (Array.sub delays 0 4 = [| 110.; 112.; 113.; -1. |] && delays.(4) = 0.)

let test_latency_size_proportional () =
  let fn = Latency.size_proportional ~per_bit:0.01 ~floor:0.5 in
  checkf "scales" 1.5 (delay fn ~src:0 ~dst:1 ~size_bits:100);
  checkf "floor" 0.5 (delay fn ~src:0 ~dst:1 ~size_bits:0)

(* ------------------------------------------------------------------ *)
(* Crash plans                                                         *)
(* ------------------------------------------------------------------ *)

let spec = Alcotest.testable (fun ppf (s : Dr_engine.Sim.crash_spec) ->
    match s with
    | Dr_engine.Sim.Never -> Format.pp_print_string ppf "never"
    | Dr_engine.Sim.At_time t -> Format.fprintf ppf "at %.2f" t
    | Dr_engine.Sim.After_sends j -> Format.fprintf ppf "after_sends %d" j
    | Dr_engine.Sim.After_queries j -> Format.fprintf ppf "after_queries %d" j)
    ( = )

let test_crash_none () =
  for i = 0 to 5 do
    Alcotest.check spec "never" Dr_engine.Sim.Never (Crash_plan.none i)
  done

let test_crash_at_times () =
  let f = Fault.choose ~k:4 (Fault.Explicit [ 1; 3 ]) in
  let plan = Crash_plan.staggered f ~first:2.0 ~gap:3.0 in
  Alcotest.check spec "peer 1" (Dr_engine.Sim.At_time 2.0) (plan 1);
  Alcotest.check spec "peer 3" (Dr_engine.Sim.At_time 5.0) (plan 3);
  Alcotest.check spec "others never" Dr_engine.Sim.Never (plan 0)

let test_crash_all_at () =
  let f = Fault.choose ~k:4 (Fault.Explicit [ 0; 2 ]) in
  let plan = Crash_plan.staggered f ~first:1.5 ~gap:0. in
  Alcotest.check spec "faulty" (Dr_engine.Sim.At_time 1.5) (plan 0);
  Alcotest.check spec "honest" Dr_engine.Sim.Never (plan 1)

let test_crash_staggered () =
  let f = Fault.choose ~k:6 (Fault.Explicit [ 1; 4; 5 ]) in
  let plan = Crash_plan.staggered f ~first:1.0 ~gap:2.0 in
  Alcotest.check spec "rank 0" (Dr_engine.Sim.At_time 1.0) (plan 1);
  Alcotest.check spec "rank 1" (Dr_engine.Sim.At_time 3.0) (plan 4);
  Alcotest.check spec "rank 2" (Dr_engine.Sim.At_time 5.0) (plan 5);
  Alcotest.check spec "honest" Dr_engine.Sim.Never (plan 0)

let test_crash_mid_broadcast_and_after_queries () =
  let f = Fault.choose ~k:3 (Fault.Explicit [ 2 ]) in
  Alcotest.check spec "mid" (Dr_engine.Sim.After_sends 4)
    (Crash_plan.mid_broadcast f ~after_sends:4 2);
  Alcotest.check spec "negative clamps" (Dr_engine.Sim.After_sends 0)
    (Crash_plan.mid_broadcast f ~after_sends:(-3) 2);
  Alcotest.check spec "after queries" (Dr_engine.Sim.After_queries 7)
    (Crash_plan.after_queries f 7 2);
  Alcotest.check spec "honest untouched" Dr_engine.Sim.Never (Crash_plan.after_queries f 7 0)

let suite =
  [
    ("fault: first/last", `Quick, test_fault_first_last);
    ("fault: spread", `Quick, test_fault_spread);
    ("fault: beta/gamma", `Quick, test_fault_none_and_all_but_one);
    ("fault: explicit dedups", `Quick, test_fault_explicit_dedup);
    ("fault: random deterministic", `Quick, test_fault_random_deterministic);
    ("fault: predicates", `Quick, test_fault_predicates);
    ("fault: rejects bad input", `Quick, test_fault_rejects_bad);
    ("latency: unit/constant", `Quick, test_latency_unit_and_constant);
    ("latency: uniform range", `Quick, test_latency_uniform_range);
    ("latency: targeted", `Quick, test_latency_targeted);
    ("latency: targeted links", `Quick, test_latency_targeted_links);
    ("latency: rushing", `Quick, test_latency_rushing);
    ("latency: jittered positive", `Quick, test_latency_jittered_positive);
    ("latency: size proportional", `Quick, test_latency_size_proportional);
    ("latency: per-message adapter", `Quick, test_latency_per_message);
    ("crash: none", `Quick, test_crash_none);
    ("crash: at times", `Quick, test_crash_at_times);
    ("crash: all at", `Quick, test_crash_all_at);
    ("crash: staggered ranks", `Quick, test_crash_staggered);
    ("crash: mid-broadcast/after-queries", `Quick, test_crash_mid_broadcast_and_after_queries);
  ]
