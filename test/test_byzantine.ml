(* Tests for the Byzantine-fault machinery: decision trees, frequent-string
   stores, the deterministic committee protocol, and the randomized 2-cycle
   and multi-cycle protocols. *)

open Dr_core
module Bitarray = Dr_source.Bitarray
module Fault = Dr_adversary.Fault
module Latency = Dr_adversary.Latency

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let byz_instance ?(seed = 1L) ?b ~k ~n ~t () =
  let inst = Problem.random_instance ~seed ?b ~model:Problem.Byzantine ~k ~n ~t () in
  inst

let assert_ok name report =
  if not report.Problem.ok then
    Alcotest.failf "%s: expected success, got %a" name Problem.pp_report report

let jitter seed = Latency.jittered (Dr_engine.Prng.create seed)
let ba = Bitarray.of_string

(* ------------------------------------------------------------------ *)
(* Decision trees (Protocol 3)                                         *)
(* ------------------------------------------------------------------ *)

let query_of truth i = Bitarray.get truth i

let test_tree_single_leaf () =
  let tree = Decision_tree.build [ ba "1010" ] in
  checki "no internal nodes" 0 (Decision_tree.internal_nodes tree);
  let v, spent = Decision_tree.determine ~query:(fun _ -> assert false) ~offset:0 tree in
  checki "no queries" 0 spent;
  checks "the leaf" "1010" (Bitarray.to_string v)

let test_tree_duplicates_merge () =
  let tree = Decision_tree.build [ ba "11"; ba "11"; ba "11" ] in
  checki "merged" 0 (Decision_tree.internal_nodes tree);
  let v, spent = Decision_tree.determine ~query:(fun _ -> assert false) ~offset:0 tree in
  checkb "one leaf" true (spent = 0 && Bitarray.to_string v = "11")

let test_tree_internal_count () =
  (* d distinct candidates -> exactly d-1 internal nodes. *)
  List.iter
    (fun strings ->
      let tree = Decision_tree.build strings in
      let distinct = List.length (List.sort_uniq Bitarray.compare strings) in
      checki "d-1 internal nodes" (distinct - 1) (Decision_tree.internal_nodes tree))
    [
      [ ba "00"; ba "01" ];
      [ ba "000"; ba "011"; ba "110" ];
      [ ba "0000"; ba "0001"; ba "0010"; ba "0100"; ba "1000" ];
      [ ba "10101010"; ba "01010101"; ba "11110000"; ba "00001111"; ba "10101010" ];
    ]

let test_tree_determine_finds_truth () =
  (* Whatever forgeries accompany it, if the true string is a candidate,
     determine returns it. *)
  let truth = ba "110010" in
  let candidates =
    [ ba "010010"; truth; ba "111010"; ba "110011"; ba "000000"; ba "111111" ]
  in
  let tree = Decision_tree.build candidates in
  let v, spent = Decision_tree.determine ~query:(query_of truth) ~offset:0 tree in
  checks "truth wins" "110010" (Bitarray.to_string v);
  checkb "queries <= candidates-1" true (spent <= List.length candidates - 1)

let test_tree_determine_with_offset () =
  (* Candidates describe bits [3..5] of a longer array. *)
  let full = ba "00010100" in
  let truth = Bitarray.sub full ~pos:3 ~len:3 in
  let tree = Decision_tree.build [ truth; ba "000"; ba "111" ] in
  let v, _ = Decision_tree.determine ~query:(query_of full) ~offset:3 tree in
  checkb "offset respected" true (Bitarray.equal v truth)

let test_tree_exhaustive_truth_recovery () =
  (* All 16 strings of length 4 as candidates: determine must recover any
     truth with exactly... at most 15 queries, always correctly. *)
  let all = List.init 16 (fun v -> Bitarray.init 4 (fun b -> (v lsr b) land 1 = 1)) in
  let tree = Decision_tree.build all in
  checki "15 internal" 15 (Decision_tree.internal_nodes tree);
  List.iter
    (fun truth ->
      let v, _ = Decision_tree.determine ~query:(query_of truth) ~offset:0 tree in
      checkb "recovered" true (Bitarray.equal v truth))
    all

let test_tree_rejects_bad_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Decision_tree.build: empty candidate set")
    (fun () -> ignore (Decision_tree.build []));
  Alcotest.check_raises "mixed lengths"
    (Invalid_argument "Decision_tree.build: candidates must have equal length") (fun () ->
      ignore (Decision_tree.build [ ba "01"; ba "011" ]))

(* A string is a leaf iff walking the tree against it as the truth returns
   it. *)
let test_tree_contains () =
  let tree = Decision_tree.build [ ba "01"; ba "10" ] in
  let contains s = Bitarray.equal s (fst (Decision_tree.determine ~query:(query_of s) ~offset:0 tree)) in
  checkb "contains" true (contains (ba "10"));
  checkb "not contains" false (contains (ba "11"))

(* ------------------------------------------------------------------ *)
(* Frequent strings                                                    *)
(* ------------------------------------------------------------------ *)

let test_frequent_threshold () =
  let st = Frequent.create () in
  ignore (Frequent.add st ~seg:0 ~peer:1 (ba "11"));
  ignore (Frequent.add st ~seg:0 ~peer:2 (ba "11"));
  ignore (Frequent.add st ~seg:0 ~peer:3 (ba "00"));
  checki "rho=2 keeps the pair" 1 (List.length (Frequent.frequent st ~seg:0 ~rho:2));
  checki "rho=1 keeps both" 2 (List.length (Frequent.frequent st ~seg:0 ~rho:1));
  checki "rho=3 keeps none" 0 (List.length (Frequent.frequent st ~seg:0 ~rho:3))

let test_frequent_one_report_per_peer () =
  (* A flooder cannot vote twice — not even on different segments. *)
  let st = Frequent.create () in
  checkb "first accepted" true (Frequent.add st ~seg:0 ~peer:7 (ba "1"));
  checkb "second rejected" false (Frequent.add st ~seg:0 ~peer:7 (ba "1"));
  checkb "other segment rejected too" false (Frequent.add st ~seg:1 ~peer:7 (ba "0"));
  checki "R_0 = 1" 1 (Frequent.total_for st ~seg:0);
  checki "one reporter" 1 (Frequent.reporters st)

let test_frequent_rejects_negative_ids () =
  let st = Frequent.create () in
  Alcotest.check_raises "negative peer" (Invalid_argument "Frequent.add: negative peer")
    (fun () -> ignore (Frequent.add st ~seg:0 ~peer:(-1) (ba "1")));
  Alcotest.check_raises "negative segment" (Invalid_argument "Frequent.add: negative segment")
    (fun () -> ignore (Frequent.add st ~seg:(-1) ~peer:0 (ba "1")));
  checki "nothing recorded" 0 (Frequent.reporters st);
  checkb "peer 0 still fresh" true (Frequent.add st ~seg:0 ~peer:0 (ba "1"))

let test_frequent_covered () =
  let st = Frequent.create () in
  ignore (Frequent.add st ~seg:0 ~peer:0 (ba "1"));
  checkb "segment 1 missing" false (Frequent.covered st ~segments:2 ~rho:1);
  ignore (Frequent.add st ~seg:1 ~peer:1 (ba "0"));
  checkb "now covered" true (Frequent.covered st ~segments:2 ~rho:1);
  checkb "not at rho=2" false (Frequent.covered st ~segments:2 ~rho:2)

let test_frequent_strings_counts () =
  let st = Frequent.create () in
  ignore (Frequent.add st ~seg:3 ~peer:0 (ba "10"));
  ignore (Frequent.add st ~seg:3 ~peer:1 (ba "10"));
  ignore (Frequent.add st ~seg:3 ~peer:2 (ba "01"));
  let counts = List.sort compare (List.map snd (Frequent.strings_for st ~seg:3)) in
  check (Alcotest.list Alcotest.int) "counts" [ 1; 2 ] counts

(* Readiness is read off the counts [add] keeps: [covered] builds no
   candidate list, so checking it allocates nothing. *)
let test_frequent_covered_allocation_free () =
  let st = Frequent.create () in
  for peer = 0 to 63 do
    ignore (Frequent.add st ~seg:(peer mod 8) ~peer (ba (if peer mod 3 = 0 then "01" else "10")))
  done;
  let ready = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    if Frequent.covered st ~segments:8 ~rho:(i mod 7) then incr ready;
    if Frequent.has_frequent st ~seg:(i mod 9) ~rho:5 then incr ready
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.(float 0.) "minor words for 2000 readiness checks" 0. words;
  checkb "some ready, some not" true (!ready > 0 && !ready < 2000)

(* ------------------------------------------------------------------ *)
(* Committee protocol                                                  *)
(* ------------------------------------------------------------------ *)

let test_committee_membership () =
  check (Alcotest.list Alcotest.int) "round robin" [ 3; 4; 0 ]
    (Committee.committee ~k:5 ~size:3 1);
  checki "size clamped to k" 4 (List.length (Committee.committee ~k:4 ~size:9 0))

let test_committee_no_attack () =
  let inst = byz_instance ~k:9 ~n:300 ~t:4 () in
  let r = Exec.run_core (Committee.core ~attack:Committee.Honest_but_silent ()) inst in
  assert_ok "silent byz" r

let test_committee_all_attacks () =
  List.iter
    (fun (label, attack) ->
      let inst = byz_instance ~k:9 ~n:300 ~t:4 () in
      assert_ok label (Exec.run_core (Committee.core ~attack ()) inst))
    [
      ("silent", Committee.Honest_but_silent);
      ("flip", Committee.Flip);
      ("equivocate", Committee.Equivocate);
      ("collude", Committee.Collude);
    ]

let test_committee_query_complexity () =
  (* Q ~= (2t+1) * n/k. *)
  let k = 10 and n = 1000 and t = 2 in
  let inst = byz_instance ~k ~n ~t ~b:(64 + 10) () in
  let r = Exec.run_core (Committee.core ~attack:Committee.Flip ()) inst in
  assert_ok "committee Q run" r;
  let per_block = 10 in
  let blocks = n / per_block in
  let expected = (2 * t) + 1 in
  (* Each peer sits on ~blocks*c/k committees of per_block bits each. *)
  let bound = (blocks * expected * per_block / k) + (2 * per_block) in
  checkb (Printf.sprintf "Q=%d <= %d" r.Problem.q_max bound) true (r.Problem.q_max <= bound);
  checkb "Q >= naive share" true (r.Problem.q_max >= n / k)

let test_committee_under_jitter () =
  List.iter
    (fun seed ->
      let inst = byz_instance ~seed ~k:7 ~n:140 ~t:3 () in
      let opts = Exec.(with_latency (jitter seed) default) in
      assert_ok
        (Printf.sprintf "jitter %Ld" seed)
        (Exec.run_core ~opts (Committee.core ~attack:Committee.Equivocate ()) inst))
    [ 1L; 2L; 3L; 4L; 5L ]

let test_committee_rushing_byzantine () =
  (* Byzantine values arrive first; honest ones must still win. *)
  let inst = byz_instance ~k:9 ~n:90 ~t:4 () in
  let fast i = Fault.is_faulty inst.Problem.fault i in
  let opts = Exec.(with_latency (Latency.rushing ~fast ~eps:0.01) default) in
  assert_ok "rushing" (Exec.run_core ~opts (Committee.core ~attack:Committee.Collude ()) inst)

let test_committee_breaks_at_majority () =
  (* Theorem 3.1 made concrete: with beta = 1/2 a colluding committee
     majority forges decisions. *)
  let k = 8 in
  let fault = Fault.choose ~k (Fault.Explicit [ 0; 2; 4; 6 ]) in
  let x = Bitarray.random (Dr_engine.Prng.create 3L) 64 in
  let inst = Problem.make ~model:Problem.Byzantine ~k ~x fault in
  (* With beta = 1/2 no committee size/threshold is safe: a committee of 5
     holds 3 colluders, enough for a forged tau = 3 quorum. Rushing delivery
     makes the forged quorum land first at every non-member. *)
  let fast i = Fault.is_faulty fault i in
  let opts = Exec.(with_latency (Latency.rushing ~fast ~eps:0.01) default) in
  let r =
    Exec.run_core ~opts
      (Committee.core ~attack:Committee.Collude ~committee_size:5 ~threshold:3 ()) inst
  in
  checkb "fails under byzantine majority" false r.Problem.ok

let test_committee_supports () =
  let committee = Registry.find_exn "byz-committee" in
  checkb "rejects beta >= 1/2" true
    (match Registry.admits committee (byz_instance ~k:8 ~n:16 ~t:4 ()) with
    | Error _ -> true
    | Ok () -> false);
  checkb "accepts beta < 1/2" true
    (match Registry.admits committee (byz_instance ~k:9 ~n:16 ~t:4 ()) with
    | Ok () -> true
    | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* 2-cycle randomized protocol                                         *)
(* ------------------------------------------------------------------ *)

let test_2cycle_plan_cases () =
  (* Big k: a real segmentation; small k: the naive fallback (s = 1). *)
  let s_big, rho_big = Byz_2cycle.plan ~k:200 ~n:10_000 ~t:20 in
  checkb "case 1: s > 1" true (s_big > 1);
  checkb "rho >= 1" true (rho_big >= 1);
  let s_small, _ = Byz_2cycle.plan ~k:8 ~n:10_000 ~t:3 in
  checki "case 3: naive" 1 s_small

let test_2cycle_case3_naive () =
  let inst = byz_instance ~k:8 ~n:64 ~t:3 () in
  let r = Exec.run_core (Byz_2cycle.core ()) inst in
  assert_ok "case 3" r;
  checki "Q = n" 64 r.Problem.q_max

let test_2cycle_attacks () =
  List.iter
    (fun (label, attack) ->
      let inst = byz_instance ~seed:11L ~k:12 ~n:120 ~t:2 () in
      let r = Exec.run_core (Byz_2cycle.core ~attack ~segments:2 ~rho:2 ()) inst in
      assert_ok label r)
    [
      ("silent", Byz_2cycle.Silent);
      ("near-miss", Byz_2cycle.Near_miss);
      ("consistent lie", Byz_2cycle.Consistent_lie);
      ("equivocate", Byz_2cycle.Equivocate);
    ]

let test_2cycle_query_savings () =
  (* With s segments, honest peers query ~n/s + trees, well below n. *)
  let n = 3000 in
  let inst = byz_instance ~seed:7L ~k:24 ~n ~t:4 () in
  let r = Exec.run_core
            (Byz_2cycle.core ~attack:Byz_2cycle.Near_miss ~segments:4 ~rho:2 ()) inst in
  assert_ok "savings" r;
  checkb
    (Printf.sprintf "Q=%d < n=%d" r.Problem.q_max n)
    true
    (r.Problem.q_max <= (n / 4) + (2 * 24))

let test_2cycle_jitter_sweep () =
  List.iter
    (fun seed ->
      let inst = byz_instance ~seed ~k:15 ~n:90 ~t:3 () in
      let opts = Exec.(with_latency (jitter seed) default) in
      assert_ok
        (Printf.sprintf "2cycle jitter %Ld" seed)
        (Exec.run_core ~opts
           (Byz_2cycle.core ~attack:Byz_2cycle.Near_miss ~segments:2 ~rho:2 ()) inst))
    [ 1L; 2L; 3L; 4L; 5L; 6L ]

let test_2cycle_rushing_forgeries () =
  (* Forged strings arrive before any honest string. *)
  let inst = byz_instance ~seed:21L ~k:12 ~n:72 ~t:2 () in
  let fast i = Fault.is_faulty inst.Problem.fault i in
  let opts = Exec.(with_latency (Latency.rushing ~fast ~eps:0.01) default) in
  let r = Exec.run_core ~opts
            (Byz_2cycle.core ~attack:Byz_2cycle.Consistent_lie ~segments:2 ~rho:2 ()) inst in
  assert_ok "rushing lie" r

let test_2cycle_rho_too_high_deadlocks () =
  (* Ablation A-1: an over-strict threshold can starve the wait condition. *)
  let inst = byz_instance ~seed:3L ~k:10 ~n:40 ~t:2 () in
  let r = Exec.run_core (Byz_2cycle.core ~attack:Byz_2cycle.Silent ~segments:2 ~rho:9 ()) inst in
  checkb "deadlock" true
    (match r.Problem.status with Dr_engine.Sim.Deadlock _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Multi-cycle randomized protocol                                     *)
(* ------------------------------------------------------------------ *)

let test_multicycle_plan () =
  let s1, cycles = Byz_multicycle.plan ~k:300 ~n:100_000 ~t:30 in
  checkb "power of two" true (s1 land (s1 - 1) = 0);
  checkb "cycles = 1 + log2 s1" true (1 lsl (cycles - 1) = s1)

let test_multicycle_small_naive () =
  let inst = byz_instance ~k:8 ~n:64 ~t:3 () in
  assert_ok "cycles=1 fallback" (Exec.run_core (Byz_multicycle.core ()) inst)

let test_multicycle_attacks () =
  List.iter
    (fun (label, attack) ->
      let inst = byz_instance ~seed:5L ~k:20 ~n:160 ~t:2 () in
      let r = Exec.run_core (Byz_multicycle.core ~attack ~segments:2 ()) inst in
      assert_ok label r)
    [
      ("silent", Byz_multicycle.Silent);
      ("near-miss", Byz_multicycle.Near_miss);
      ("consistent lie", Byz_multicycle.Consistent_lie);
      ("equivocate", Byz_multicycle.Equivocate);
      ("mirror", Byz_multicycle.Mirror);
    ]

let test_multicycle_deeper () =
  let inst = byz_instance ~seed:13L ~k:48 ~n:480 ~t:8 () in
  let r = Exec.run_core
            (Byz_multicycle.core ~attack:Byz_multicycle.Near_miss ~segments:4 ()) inst in
  assert_ok "s1=4 (3 cycles)" r;
  checkb "Q well below n" true (r.Problem.q_max < 480)

let test_multicycle_jitter () =
  List.iter
    (fun seed ->
      let inst = byz_instance ~seed ~k:20 ~n:100 ~t:3 () in
      let opts = Exec.(with_latency (jitter seed) default) in
      assert_ok
        (Printf.sprintf "multicycle jitter %Ld" seed)
        (Exec.run_core ~opts
           (Byz_multicycle.core ~attack:Byz_multicycle.Near_miss ~segments:2 ()) inst))
    [ 1L; 2L; 3L; 4L ]

let test_combined_adversary_committee () =
  (* Everything at once: rushing Byzantine delivery and B-limited
     serialized links. *)
  let inst = byz_instance ~seed:41L ~k:9 ~n:360 ~t:4 () in
  let fast i = Fault.is_faulty inst.Problem.fault i in
  let opts =
    Exec.make_opts
      ~latency:(Latency.rushing ~fast ~eps:0.01)
      ~link_rate:(float_of_int inst.Problem.b)
      ()
  in
  assert_ok "combined adversary"
    (Exec.run_core ~opts (Committee.core ~attack:Committee.Collude ()) inst)

let test_2cycle_under_serialized_links () =
  let inst = byz_instance ~seed:43L ~k:16 ~n:160 ~t:3 () in
  let opts =
    Exec.default
    |> Exec.with_latency (jitter 43L)
    |> Exec.with_link_rate 4096.
  in
  assert_ok "2cycle + link rate"
    (Exec.run_core ~opts
       (Byz_2cycle.core ~attack:Byz_2cycle.Consistent_lie ~segments:2 ~rho:2 ()) inst)

let test_multicycle_under_serialized_links () =
  let inst = byz_instance ~seed:47L ~k:24 ~n:240 ~t:4 () in
  let opts = Exec.with_link_rate 8192. Exec.default in
  assert_ok "multicycle + link rate"
    (Exec.run_core ~opts
       (Byz_multicycle.core ~attack:Byz_multicycle.Near_miss ~segments:2 ()) inst)

let test_committee_explored_schedules () =
  (* Schedule exploration with an actual Byzantine peer in the mix: a
     silent byzantine peer on k=3, every explored order must decide. *)
  let x = Bitarray.random (Dr_engine.Prng.create 51L) 4 in
  let fault = Fault.choose ~k:3 (Fault.Explicit [ 2 ]) in
  let inst = Problem.make ~model:Problem.Byzantine ~k:3 ~x fault in
  let r =
    Dr_engine.Explore.dfs ~budget:2_000 ~run:(fun ~arbiter ->
        let opts = Exec.with_arbiter arbiter Exec.default in
        (Exec.run_core ~opts
           (Committee.core ~attack:Committee.Honest_but_silent ()) inst).Problem.ok)
  in
  checki "no failing schedule" 0 r.Dr_engine.Explore.failures

let suite =
  [
    ("tree: single leaf", `Quick, test_tree_single_leaf);
    ("tree: duplicates merge", `Quick, test_tree_duplicates_merge);
    ("tree: internal = distinct-1", `Quick, test_tree_internal_count);
    ("tree: truth survives forgeries", `Quick, test_tree_determine_finds_truth);
    ("tree: offset", `Quick, test_tree_determine_with_offset);
    ("tree: exhaustive recovery", `Quick, test_tree_exhaustive_truth_recovery);
    ("tree: rejects bad input", `Quick, test_tree_rejects_bad_input);
    ("tree: contains", `Quick, test_tree_contains);
    ("frequent: threshold", `Quick, test_frequent_threshold);
    ("frequent: one report per peer", `Quick, test_frequent_one_report_per_peer);
    ("frequent: covered", `Quick, test_frequent_covered);
    ("frequent: counts", `Quick, test_frequent_strings_counts);
    ("committee: membership", `Quick, test_committee_membership);
    ("committee: no attack", `Quick, test_committee_no_attack);
    ("committee: all attacks", `Quick, test_committee_all_attacks);
    ("committee: query complexity", `Quick, test_committee_query_complexity);
    ("committee: jitter", `Quick, test_committee_under_jitter);
    ("committee: rushing byzantine", `Quick, test_committee_rushing_byzantine);
    ("committee: breaks at beta>=1/2", `Quick, test_committee_breaks_at_majority);
    ("committee: supports", `Quick, test_committee_supports);
    ("2cycle: plan cases", `Quick, test_2cycle_plan_cases);
    ("2cycle: case 3 = naive", `Quick, test_2cycle_case3_naive);
    ("2cycle: attacks", `Quick, test_2cycle_attacks);
    ("2cycle: query savings", `Quick, test_2cycle_query_savings);
    ("2cycle: jitter sweep", `Quick, test_2cycle_jitter_sweep);
    ("2cycle: rushing forgeries", `Quick, test_2cycle_rushing_forgeries);
    ("2cycle: rho ablation deadlock", `Quick, test_2cycle_rho_too_high_deadlocks);
    ("multicycle: plan", `Quick, test_multicycle_plan);
    ("multicycle: small naive", `Quick, test_multicycle_small_naive);
    ("multicycle: attacks", `Quick, test_multicycle_attacks);
    ("multicycle: deeper", `Quick, test_multicycle_deeper);
    ("multicycle: jitter", `Quick, test_multicycle_jitter);
    ("combined adversary (committee)", `Quick, test_combined_adversary_committee);
    ("2cycle under serialized links", `Quick, test_2cycle_under_serialized_links);
    ("multicycle under serialized links", `Quick, test_multicycle_under_serialized_links);
    ("committee: explored schedules", `Quick, test_committee_explored_schedules);
    ("frequent: negative ids rejected", `Quick, test_frequent_rejects_negative_ids);
    ("frequent: covered allocates nothing", `Quick, test_frequent_covered_allocation_free);
  ]
