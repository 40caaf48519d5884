(* The coverage-guided campaign: seeded-bug discovery, campaign-vs-random
   comparison, byte-level determinism, shrinker idempotence, corpus
   persistence and the coverage/mutation building blocks.

   Golden files (seeded_*.repro.json, campaign_stats.golden) regenerate with
   DR_CHECK_BLESS=1 dune runtest. *)

module Check = Dr_check.Check
module Coverage = Dr_check.Coverage
module Corpus = Dr_check.Corpus
module Mutate = Dr_check.Mutate
module Repro = Dr_check.Repro
module Invariant = Dr_check.Invariant
module Explore = Dr_engine.Explore
module Sim = Dr_engine.Sim
module Prng = Dr_engine.Prng
module Registry = Dr_core.Registry
module Crash_plan = Dr_adversary.Crash_plan

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* One budget and seed for every fixture campaign: the acceptance bar is
   that this single configuration finds all three planted bugs. *)
let campaign_budget = 240
let campaign_seed = 7

let run_campaign target =
  Check.campaign ~bucket:1 ~budget:campaign_budget ~seed:campaign_seed target

let golden_path target = String.map (function '-' -> '_' | c -> c) target.Check.name ^ ".repro.json"

let first_failure label (c : Check.campaign) =
  match c.Check.failures with
  | r :: _ -> r
  | [] -> Alcotest.fail (label ^ ": campaign found no violation")

(* ------------------------------------------------------------------ *)
(* Seeded bugs: the campaign finds all three planted violations        *)
(* ------------------------------------------------------------------ *)

let test_campaign_finds_seeded_bugs () =
  List.iter
    (fun target ->
      let c = run_campaign target in
      let r = first_failure target.Check.name c in
      checks
        (target.Check.name ^ " violated invariant")
        (Seeded_bugs.expected_invariant target)
        r.Repro.invariant;
      (* The shrunk counterexample is committed as a golden and must replay
         to the same invariant at the same event index. *)
      Test_check.bless_or_compare ~path:(golden_path target)
        ~label:(target.Check.name ^ " golden repro")
        (Test_check.repro_json r);
      let reloaded = Repro.read (golden_path target) in
      match Check.replay ~targets:Seeded_bugs.all reloaded with
      | Check.Reproduced _ -> ()
      | Check.Diverged msg -> Alcotest.fail (target.Check.name ^ " diverged: " ^ msg)
      | Check.Vanished -> Alcotest.fail (target.Check.name ^ " vanished"))
    Seeded_bugs.all

(* Plain random fuzzing: every run draws a scenario (pool entry, attack,
   instance seed, crash plan) and a schedule uniformly at random. Returns
   how many of the [budget] runs violated an invariant. *)
let random_violations ~budget ~seed target =
  let prng = Prng.create (Int64.of_int (seed + 0x5eed)) in
  let pick l = List.nth l (Prng.int prng (List.length l)) in
  let fresh_seed () = Int64.of_int (1 + Prng.int prng 1_000_000) in
  let crashes =
    Crash_plan.
      [
        No_crash; Mid_broadcast 0; Mid_broadcast 1; Mid_broadcast 2; After_queries 0; After_queries 1;
      ]
  in
  let violating = ref 0 in
  for _ = 1 to budget do
    let k, n, t = pick target.Check.pool in
    let attack = pick target.Check.attacks in
    let crash = pick crashes in
    let scenario = { Repro.protocol = target.Check.name; attack; k; n; t; seed = fresh_seed (); crash } in
    let arbiter = Explore.random (Prng.create (fresh_seed ())) in
    if (Check.run_scenario target scenario ~arbiter).Check.violation <> None then incr violating
  done;
  !violating

let test_campaign_vs_random () =
  (* Plain random fuzzing at the same budget and seed, measured side by
     side. The campaign must find every planted bug; random's score is
     informative, not asserted — the point of the fixture suite is that the
     comparison is reproducible. *)
  List.iter
    (fun target ->
      let c = run_campaign target in
      let random = random_violations ~budget:campaign_budget ~seed:campaign_seed target in
      Printf.printf "%s: campaign %d violation(s) in %d runs, random %d violating run(s) in %d\n%!"
        target.Check.name
        (List.length c.Check.failures)
        c.Check.executed random campaign_budget;
      checkb (target.Check.name ^ " campaign finds the bug") true (c.Check.failures <> []))
    Seeded_bugs.all

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, same bytes                                  *)
(* ------------------------------------------------------------------ *)

(* Save the corpus the way dr_check does and read the files back in order. *)
let saved_corpus c =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dr_corpus_saved" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Corpus.save c ~dir;
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.map (fun f -> Test_check.read_file (Filename.concat dir f))

let corpus_bytes c = String.concat "" (saved_corpus c)

(* Everything the campaign reads out of a coverage map. *)
let coverage_counts c = (Coverage.distinct c, Coverage.hits c)

let test_campaign_deterministic () =
  let check_twice target =
    let a = run_campaign target in
    let b = run_campaign target in
    checkb
      (target.Check.name ^ " coverage maps equal")
      true
      (coverage_counts a.Check.coverage = coverage_counts b.Check.coverage);
    checks (target.Check.name ^ " corpus bytes") (corpus_bytes a.Check.corpus)
      (corpus_bytes b.Check.corpus);
    checks
      (target.Check.name ^ " failure list")
      (String.concat "" (List.map Test_check.repro_json a.Check.failures))
      (String.concat "" (List.map Test_check.repro_json b.Check.failures));
    checks (target.Check.name ^ " stats json") (Check.campaign_stats_json a)
      (Check.campaign_stats_json b)
  in
  check_twice Seeded_bugs.agreement;
  (* And through the registry path (observer threaded via Exec.opts). *)
  let entry = Registry.find_exn "crash-general" in
  let a = Check.campaign ~budget:60 ~seed:3 (Check.of_registry entry) in
  let b = Check.campaign ~budget:60 ~seed:3 (Check.of_registry entry) in
  checkb "registry coverage maps equal" true
    (coverage_counts a.Check.coverage = coverage_counts b.Check.coverage);
  checks "registry stats json" (Check.campaign_stats_json a) (Check.campaign_stats_json b)

let test_campaign_stats_golden () =
  let c = run_campaign Seeded_bugs.agreement in
  Test_check.bless_or_compare ~path:"campaign_stats.golden" ~label:"campaign stats bytes"
    (Check.campaign_stats_json c)

(* ------------------------------------------------------------------ *)
(* Shrinker idempotence                                                *)
(* ------------------------------------------------------------------ *)

let test_shrink_idempotent () =
  (* Re-shrinking a shrunk counterexample is a fixpoint: replay the repro to
     recover the violation, shrink again, demand identical bytes. *)
  List.iter
    (fun target ->
      let c = run_campaign target in
      let r = first_failure target.Check.name c in
      match Check.replay ~targets:Seeded_bugs.all r with
      | Check.Reproduced v ->
        let r2 = Check.shrink target r.Repro.scenario v ~script:r.Repro.script in
        checks (target.Check.name ^ " re-shrink is a fixpoint") (Test_check.repro_json r)
          (Test_check.repro_json r2)
      | Check.Diverged msg -> Alcotest.fail (target.Check.name ^ " diverged: " ^ msg)
      | Check.Vanished -> Alcotest.fail (target.Check.name ^ " vanished"))
    Seeded_bugs.all

(* ------------------------------------------------------------------ *)
(* Registry protocols under the campaign                               *)
(* ------------------------------------------------------------------ *)

let test_registry_campaign_clean () =
  (* The real protocols — including the adaptive/splitcast adversaries now
     in the Byzantine catalogs — must survive a campaign with zero
     violations while producing nonempty coverage. *)
  List.iter
    (fun entry ->
      let c = Check.campaign ~budget:40 ~seed:1 (Check.of_registry entry) in
      checki (Registry.name entry ^ " violations") 0 (List.length c.Check.failures);
      checki (Registry.name entry ^ " executed") 40 c.Check.executed;
      checkb (Registry.name entry ^ " has coverage") true (Coverage.distinct c.Check.coverage > 0))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Corpus persistence                                                  *)
(* ------------------------------------------------------------------ *)

(* Every saved entry is a dr-corpus/1 replay recipe: the scenario and a
   script of nonnegative choices. *)
let test_corpus_roundtrip () =
  let c = run_campaign Seeded_bugs.agreement in
  let files = saved_corpus c.Check.corpus in
  checki "corpus size survives" (Corpus.size c.Check.corpus) (List.length files);
  List.iter
    (fun text ->
      let root = Dr_stats.Json.parse text in
      checks "schema" "dr-corpus/1" (Dr_stats.Json.str root "schema");
      checks "protocol" Seeded_bugs.agreement.Check.name (Dr_stats.Json.str root "protocol");
      match Dr_stats.Json.member root "script" with
      | Some (Dr_stats.Json.Arr items) ->
        checkb "script of choices" true
          (List.for_all (function Dr_stats.Json.Num f -> f >= 0. | _ -> false) items)
      | _ -> Alcotest.fail "missing script array")
    files;
  checks "saving again writes the same bytes" (String.concat "" files) (corpus_bytes c.Check.corpus)

(* ------------------------------------------------------------------ *)
(* Building blocks: coverage map, signatures, mutation engine          *)
(* ------------------------------------------------------------------ *)

let test_coverage_map () =
  let c = Coverage.create () in
  checki "first run all fresh" 3 (Coverage.note c [ 1; 2; 3 ]);
  checki "second run one fresh" 1 (Coverage.note c [ 2; 3; 4 ]);
  checki "distinct" 4 (Coverage.distinct c);
  checki "hits" 6 (Coverage.hits c);
  let d = Coverage.create () in
  ignore (Coverage.note d [ 1; 2; 3 ]);
  ignore (Coverage.note d [ 2; 3; 4 ]);
  checkb "same notes, equal maps" true (coverage_counts c = coverage_counts d);
  ignore (Coverage.note d [ 9 ]);
  checkb "diverged maps differ" false (coverage_counts c = coverage_counts d);
  (* Noting [1..4] again lights nothing new: exactly those keys are in. *)
  checki "signatures 1..4" 0 (Coverage.note c [ 1; 2; 3; 4 ]);
  checki "one new key unions" 1 (Coverage.note c [ 9; 4 ]);
  checki "merge unions" 5 (Coverage.distinct c)

let test_signature_stability () =
  let obs kind tag step = { Sim.obs_kind = kind; obs_peer = 0; obs_tag = tag; obs_step = step } in
  (* The signature a fresh probe records for one observation. *)
  let signature ?bucket o =
    let p = Explore.probe ?bucket () in
    p.Explore.observer o;
    match p.Explore.hits () with
    | [ s ] -> s
    | hits -> Alcotest.failf "expected one signature, got %d" (List.length hits)
  in
  let s1 = signature (obs Sim.Obs_deliver "seg(c2,0)" 12) in
  checki "same obs, same signature" s1 (signature (obs Sim.Obs_deliver "seg(c2,0)" 12));
  checkb "kind distinguishes" true
    (s1 <> signature (obs Sim.Obs_query_reply "seg(c2,0)" 12));
  checkb "tag distinguishes" true (s1 <> signature (obs Sim.Obs_deliver "seg(c2,1)" 12));
  checkb "same bucket, same signature" true
    (signature ~bucket:8 (obs Sim.Obs_deliver "x" 8)
    = signature ~bucket:8 (obs Sim.Obs_deliver "x" 15));
  checkb "bucket boundary distinguishes" true
    (signature ~bucket:8 (obs Sim.Obs_deliver "x" 7)
    <> signature ~bucket:8 (obs Sim.Obs_deliver "x" 8));
  checkb "30-bit range" true (s1 >= 0 && s1 < 0x40000000)

let test_scripted_then_random () =
  let prng = Prng.create 5L in
  let arb = Explore.scripted_then_random [ 1; 7; 0 ] prng in
  checki "follows script" 1 (arb 3);
  checki "clamps like the simulator" 2 (arb 3);
  checki "script tail" 0 (arb 4);
  for _ = 1 to 50 do
    let c = arb 3 in
    checkb "random suffix in range" true (c >= 0 && c < 3)
  done

let test_mutate_deterministic () =
  let scenario =
    {
      Repro.protocol = "seeded-agreement";
      attack = "default";
      k = 3;
      n = 2;
      t = 0;
      seed = 11L;
      crash = Crash_plan.No_crash;
    }
  in
  let base = { Corpus.scenario; script = [ 0; 1; 2; 3; 4; 5 ]; new_signatures = 2 } in
  let donor = { Corpus.scenario; script = [ 9; 8; 7 ]; new_signatures = 1 } in
  let mutate seed =
    List.init 20 (fun _ ->
        Mutate.mutate ~prng:(Prng.create seed) ~attacks:[ "default"; "silent" ]
          ~crashes:[ Crash_plan.No_crash; Crash_plan.Mid_broadcast 1 ]
          ~donor:(Some donor) base)
    |> List.map (fun (s, prefix) ->
           Test_check.repro_json
             {
               Repro.scenario = s;
               script = prefix;
               invariant = "agreement";
               event = 0;
               detail = "";
             })
    |> String.concat ""
  in
  checks "same prng, same mutants" (mutate 13L) (mutate 13L);
  (* Across many draws every operator keeps the script a valid choice list. *)
  let prng = Prng.create 99L in
  for _ = 1 to 200 do
    let _s, prefix =
      Mutate.mutate ~prng ~attacks:[ "default"; "silent" ]
        ~crashes:[ Crash_plan.No_crash; Crash_plan.Mid_broadcast 1 ]
        ~donor:(Some donor) base
    in
    checkb "prefix entries nonnegative" true (List.for_all (fun c -> c >= 0) prefix);
    checkb "prefix bounded" true (List.length prefix <= 9)
  done

let suite =
  [
    ("campaign: finds all seeded bugs (goldens)", `Quick, test_campaign_finds_seeded_bugs);
    ("campaign: beats-or-matches plain random", `Quick, test_campaign_vs_random);
    ("campaign: same seed, same bytes", `Quick, test_campaign_deterministic);
    ("campaign: stats golden", `Quick, test_campaign_stats_golden);
    ("shrink: re-shrinking is a fixpoint", `Quick, test_shrink_idempotent);
    ("campaign: registry protocols stay clean", `Quick, test_registry_campaign_clean);
    ("corpus: save/load round-trip", `Quick, test_corpus_roundtrip);
    ("coverage: map accounting", `Quick, test_coverage_map);
    ("coverage: signature stability", `Quick, test_signature_stability);
    ("explore: scripted-then-random arbiter", `Quick, test_scripted_then_random);
    ("mutate: deterministic and well-formed", `Quick, test_mutate_deterministic);
  ]
