(* The dr_check model checker: invariant oracle, the campaign on a planted
   bug, counterexample shrinking and repro-file round-trips.

   shrink_min.golden regenerates with DR_CHECK_BLESS=1 dune runtest.
   check_broken.repro.json is a fixed repro of the planted bug: the test
   replays it, and nothing rewrites it. *)

open Dr_core
module Check = Dr_check.Check
module Invariant = Dr_check.Invariant
module Repro = Dr_check.Repro
module Shrink = Dr_check.Shrink
module Explore = Dr_engine.Explore
module Sim = Dr_engine.Sim
module Prng = Dr_engine.Prng
module Crash_plan = Dr_adversary.Crash_plan
module Bitarray = Dr_source.Bitarray

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let bless = Sys.getenv_opt "DR_CHECK_BLESS" <> None

let bless_or_compare ~path ~label content =
  if bless then begin
    let oc = open_out path in
    output_string oc content;
    close_out oc
  end
  else begin
    let ic = open_in_bin path in
    let expected =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    checks label expected content
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* Repro files go through the same [write]/[read] that dr_check uses. *)
let tmp_repro = Filename.concat (Filename.get_temp_dir_name ()) "dr_check_test.repro.json"

let repro_json r =
  Repro.write ~path:tmp_repro r;
  read_file tmp_repro

let repro_of_json text =
  write_file tmp_repro text;
  Repro.read tmp_repro

(* ------------------------------------------------------------------ *)
(* Test-only protocol stubs                                            *)
(* ------------------------------------------------------------------ *)

module Msg = struct
  type t = int

  let size_bits _ = 8
  let tag = string_of_int
end

module S = Sim.Make (Msg)

let download n = Bitarray.init n (fun j -> S.query j)

(* Deliberately order-sensitive: peer 0 outputs X only if peer 1's message
   beats peer 2's — the planted bug the checker must find, shrink and
   replay. *)
let broken_run ?observer ~attack:_ ~crash:_ ~arbiter inst =
  let cfg = Exec.build_config inst (Exec.make_opts ?observer ~arbiter ()) in
  let n = Problem.n inst in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          let first, _ = S.receive () in
          let _ = S.receive () in
          let x = download n in
          if first = 1 then x else Bitarray.flip x 0
        end
        else begin
          S.send 0 i;
          download n
        end)
  in
  Exec.finish ~protocol:"broken-order" inst outcome

let broken_target =
  {
    Check.name = "broken-order";
    attacks = [ "default" ];
    model = Problem.Crash;
    spec = None;
    pool = [ (3, 2, 0) ];
    run = broken_run;
  }

(* Wrong output whenever any peer has a send-counted crash spec — exercises
   fault-plan shrinking in isolation. *)
let crashy_run ?observer ~attack:_ ~crash ~arbiter inst =
  let bad =
    List.exists
      (fun p -> match crash p with Sim.After_sends _ -> true | _ -> false)
      (List.init inst.Problem.k Fun.id)
  in
  let cfg = Exec.build_config inst (Exec.make_opts ?observer ~arbiter ()) in
  let n = Problem.n inst in
  let outcome = S.run cfg (fun _ -> if bad then Bitarray.flip (download n) 0 else download n) in
  Exec.finish ~protocol:"crash-sensitive" inst outcome

let crashy_target =
  {
    Check.name = "crash-sensitive";
    attacks = [ "default" ];
    model = Problem.Crash;
    spec = None;
    pool = [ (2, 2, 1) ];
    run = crashy_run;
  }

(* Honest peer 0 waits for a message nobody sends. *)
let deadlock_run ?observer ~attack:_ ~crash:_ ~arbiter inst =
  let cfg = Exec.build_config inst (Exec.make_opts ?observer ~arbiter ()) in
  let n = Problem.n inst in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          let _ = S.receive () in
          download n
        end
        else download n)
  in
  Exec.finish ~protocol:"deadlocker" inst outcome

let deadlock_target =
  {
    Check.name = "deadlocker";
    attacks = [ "default" ];
    model = Problem.Crash;
    spec = None;
    pool = [ (2, 2, 0) ];
    run = deadlock_run;
  }

let scenario ?(attack = "default") ?(crash = Crash_plan.No_crash) ~k ~n ~t ~seed name =
  { Repro.protocol = name; attack; k; n; t; seed = Int64.of_int seed; crash }

(* ------------------------------------------------------------------ *)
(* Invariant oracle                                                    *)
(* ------------------------------------------------------------------ *)

let violation_of (c : Check.checked) =
  match c.Check.violation with
  | Some v -> v
  | None -> Alcotest.fail "expected a violation"

let test_oracle_termination () =
  let s = scenario ~k:2 ~n:2 ~t:0 ~seed:1 "deadlocker" in
  let v =
    violation_of
      (Check.run_scenario deadlock_target s ~arbiter:(Explore.random (Prng.create 1L)))
  in
  checks "invariant" "termination" (Invariant.name v.Invariant.invariant);
  checkb "names honest blocked peer" true
    (String.length v.Invariant.detail > 0
    && v.Invariant.invariant = Invariant.Termination)

let test_oracle_agreement_and_pass () =
  (* The broken stub fails agreement on some schedule and passes on others;
     a healthy registry protocol passes everywhere. *)
  let s = scenario ~k:3 ~n:2 ~t:0 ~seed:1 "broken-order" in
  let r = Explore.dfs ~budget:200 ~run:(fun ~arbiter ->
      (Check.run_scenario broken_target s ~arbiter).Check.violation = None)
  in
  checkb "bug found" true (r.Explore.failures > 0);
  checkb "bug is schedule-dependent" true (r.Explore.failures < r.Explore.schedules_run);
  let naive = Check.of_registry (Registry.find_exn "naive") in
  let sn = scenario ~k:3 ~n:4 ~t:1 ~seed:2 "naive" in
  checkb "naive passes" true
    ((Check.run_scenario naive sn ~arbiter:(Explore.random (Prng.create 2L))).Check.violation
    = None)

let test_oracle_spec_bound () =
  (* Naive's Q = n blows the balanced bound: the spec-bound invariant must
     say so (deterministic spec, resilient regime). *)
  let naive_entry = Registry.find_exn "naive" in
  let miswired =
    { (Check.of_registry naive_entry) with Check.spec = Some Spec.balanced; pool = [ (2, 8, 0) ] }
  in
  let s = scenario ~k:2 ~n:8 ~t:0 ~seed:1 "naive" in
  let v = violation_of (Check.run_scenario miswired s ~arbiter:(Explore.random (Prng.create 1L))) in
  checks "invariant" "spec-bound" (Invariant.name v.Invariant.invariant)

(* ------------------------------------------------------------------ *)
(* Explore: replay divergence, read off the recorded schedule          *)
(* ------------------------------------------------------------------ *)

let echo_run arbiter =
  let cfg =
    {
      (Sim.default_config ~k:2 ~query_bit:(fun ~peer:_ _ -> false)) with
      Sim.arbiter = Some arbiter;
    }
  in
  ignore
    (S.run cfg (fun i ->
         S.send (1 - i) i;
         ignore (S.receive ())))

(* Replay [script] under [record (scripted script)]: the schedule that
   actually fired, to compare against the script. *)
let replayed script =
  let arb, recorded = Explore.record (Explore.scripted script) in
  echo_run arb;
  recorded ()

let test_replay_counts_overruns () =
  (* A 1-entry script cannot cover the echo's schedule: the recorded
     schedule shows every choice padded past the script's end. *)
  let r = replayed [ 0 ] in
  let overruns = List.length r - 1 in
  checkb "overran the script" true (overruns > 0);
  checkb "not faithful" false (r = [ 0 ]);
  checkb "padded with zeros" true (List.for_all (fun c -> c = 0) (List.tl r));
  checki "steps = script + overruns" (List.length r) (1 + overruns)

let test_replay_counts_clamps () =
  let script = [ 99; 99; 99; 99; 99; 99; 99; 99 ] in
  let r = replayed script in
  checkb "clamped out-of-range choices" true
    (List.exists2 (fun got want -> got <> want) r (List.filteri (fun i _ -> i < List.length r) script));
  checkb "not faithful" false (r = script)

let test_recorded_script_replays_faithfully () =
  let arb, recorded = Explore.record (Explore.random (Prng.create 7L)) in
  echo_run arb;
  let script = recorded () in
  let r = replayed script in
  checkb "faithful" true (r = script);
  checki "exact step count" (List.length script) (List.length r)

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let script_to_string s = String.concat " " (List.map string_of_int s)

let test_shrink_to_known_minimum () =
  (* fails iff the script contains at least two 1s: locally minimal is
     exactly [1; 1]. *)
  let fails s = List.length (List.filter (fun x -> x = 1) s) >= 2 in
  let m1 = Shrink.minimize ~fails [ 3; 1; 0; 1; 2; 1; 0; 4; 1 ] in
  checkb "still fails" true (fails m1);
  checkb "minimal" true (m1 = [ 1; 1 ]);
  (* fails iff some element >= 3: deletion strips the rest, lowering drives
     the witness down to exactly 3. *)
  let fails2 s = List.exists (fun x -> x >= 3) s in
  let m2 = Shrink.minimize ~fails:fails2 [ 0; 5; 2; 9 ] in
  checkb "minimal witness" true (m2 = [ 3 ]);
  bless_or_compare ~path:"shrink_min.golden" ~label:"golden minima"
    (script_to_string m1 ^ "\n" ^ script_to_string m2 ^ "\n")

let test_shrink_passing_is_noop () =
  let script = [ 5; 4; 3; 2; 1 ] in
  checkb "no-op on a passing run" true
    (Shrink.minimize ~fails:(fun _ -> false) script = script)

let test_shrink_respects_budget () =
  (* With a one-test budget the initial check consumes it and nothing can
     shrink. *)
  let fails s = s <> [] in
  checkb "budget exhausted, script kept" true
    (Shrink.minimize ~max_tests:1 ~fails [ 1; 2 ] = [ 1; 2 ])

let test_shrink_crash_plan () =
  let s =
    scenario ~crash:(Crash_plan.Mid_broadcast 3) ~k:2 ~n:2 ~t:1 ~seed:1 "crash-sensitive"
  in
  let c = Check.run_scenario crashy_target s ~arbiter:(Explore.random (Prng.create 1L)) in
  let v = violation_of c in
  let r = Check.shrink crashy_target s v ~script:c.Check.script in
  checkb "crash plan lowered to its minimum" true
    (r.Repro.scenario.Repro.crash = Crash_plan.Mid_broadcast 0);
  checkb "script shrunk to nothing" true (r.Repro.script = [])

(* ------------------------------------------------------------------ *)
(* The campaign on the planted bug + repro round-trip                  *)
(* ------------------------------------------------------------------ *)

let broken_campaign () = Check.campaign ~budget:200 ~seed:1 broken_target

let test_fuzz_finds_and_shrinks_planted_bug () =
  let c = broken_campaign () in
  checkb "found the planted bug" true (c.Check.failures <> []);
  let r = List.hd c.Check.failures in
  checks "agreement broke" "agreement" r.Repro.invariant;
  (* Local minimality: dropping any single element of the shrunk script (or
     lowering any choice) loses the failure. *)
  let fails script =
    match
      (Check.run_scenario broken_target r.Repro.scenario ~arbiter:(Explore.scripted script))
        .Check.violation
    with
    | Some v -> Invariant.name v.Invariant.invariant = r.Repro.invariant
    | None -> false
  in
  checkb "shrunk script still fails" true (fails r.Repro.script);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) r.Repro.script in
      checkb (Printf.sprintf "deleting element %d breaks the repro" i) false (fails without))
    r.Repro.script;
  (* And the repro replays to the same invariant at the same event. *)
  match Check.replay ~targets:[ broken_target ] r with
  | Check.Reproduced _ -> ()
  | Check.Diverged msg -> Alcotest.fail ("diverged: " ^ msg)
  | Check.Vanished -> Alcotest.fail "vanished"

let test_repro_json_roundtrip () =
  let c = broken_campaign () in
  let r = List.hd c.Check.failures in
  let r' = repro_of_json (repro_json r) in
  checkb "round-trips structurally" true (r = r');
  checks "round-trips textually" (repro_json r) (repro_json r')

let test_repro_golden_file () =
  (* The committed repro file must reload, replay, and fail the same
     invariant at the same event index. *)
  let reloaded = Repro.read "check_broken.repro.json" in
  match Check.replay ~targets:[ broken_target ] reloaded with
  | Check.Reproduced v ->
    checks "same invariant" reloaded.Repro.invariant (Invariant.name v.Invariant.invariant);
    checki "same event index" reloaded.Repro.event v.Invariant.event
  | Check.Diverged msg -> Alcotest.fail ("golden repro diverged: " ^ msg)
  | Check.Vanished -> Alcotest.fail "golden repro vanished"

let test_repro_rejects_garbage () =
  let expect_failure label text =
    match repro_of_json text with
    | _ -> Alcotest.fail (label ^ ": expected Failure")
    | exception Failure _ -> ()
  in
  expect_failure "wrong schema" "{ \"schema\": \"dr-campaign/1\" }";
  expect_failure "bad crash" "{ \"schema\": \"dr-check/1\", \"protocol\": \"x\", \"attack\": \"a\", \"k\": 1, \"n\": 1, \"t\": 0, \"seed\": \"1\", \"crash\": \"at-time:3\", \"script\": [], \"invariant\": \"agreement\", \"event\": 0, \"detail\": \"\" }";
  expect_failure "fractional script" "{ \"schema\": \"dr-check/1\", \"protocol\": \"x\", \"attack\": \"a\", \"k\": 1, \"n\": 1, \"t\": 0, \"seed\": \"1\", \"crash\": \"none\", \"script\": [1.5], \"invariant\": \"agreement\", \"event\": 0, \"detail\": \"\" }"

(* ------------------------------------------------------------------ *)
(* The registry under the checker                                      *)
(* ------------------------------------------------------------------ *)

let test_registry_protocols_clean () =
  (* Small fixed-seed campaign over every registry protocol: the real
     protocols must produce zero violations (the @check-smoke alias runs the
     same thing with a bigger budget via the CLI). *)
  List.iter
    (fun entry ->
      let c = Check.campaign ~budget:80 ~seed:1 (Check.of_registry entry) in
      checki (Registry.name entry ^ " violations") 0 (List.length c.Check.failures);
      checki (Registry.name entry ^ " executed") 80 c.Check.executed)
    Registry.all

let test_unknown_attack_rejected () =
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
    go 0
  in
  let e = Registry.find_exn "byz-2cycle" in
  (match Registry.validate_attack e "bogus" with
  | Ok () -> Alcotest.fail "expected Error for an out-of-catalog attack"
  | Error msg ->
    checkb "message names the attack" true (contains ~sub:"bogus" msg);
    checkb "message lists the catalog" true (contains ~sub:"adaptive" msg));
  checkb "default accepted" true (Registry.validate_attack e "default" = Ok ());
  List.iter
    (fun a -> checkb (a ^ " accepted") true (Registry.validate_attack e a = Ok ()))
    (Registry.attacks e);
  (* Protocols without an attack surface accept and ignore any name. *)
  let naive = Registry.find_exn "naive" in
  checkb "no attack surface ignores the name" true
    (Registry.validate_attack naive "bogus" = Ok ());
  (* Running anyway raises the structured exception, not a bare Failure. *)
  let inst = Problem.random_instance ~seed:1L ~model:Problem.Byzantine ~k:4 ~n:16 ~t:1 () in
  match e.Registry.run ~attack:"bogus" inst with
  | _ -> Alcotest.fail "expected Unknown_attack"
  | exception Registry.Unknown_attack { attack; protocol; known } ->
    checks "exception attack" "bogus" attack;
    checks "exception protocol" "byz-2cycle" protocol;
    checkb "exception catalog includes default" true (List.exists (String.equal "default") known)

let test_replay_detects_divergence () =
  (* A repro doctored to expect the wrong event index must be flagged as
     divergence, not reported as reproduced. *)
  let c = broken_campaign () in
  let r = List.hd c.Check.failures in
  let doctored = { r with Repro.event = r.Repro.event + 1 } in
  (match Check.replay ~targets:[ broken_target ] doctored with
  | Check.Diverged _ -> ()
  | _ -> Alcotest.fail "expected divergence on a doctored event index");
  let wrong_inv = { r with Repro.invariant = "termination" } in
  match Check.replay ~targets:[ broken_target ] wrong_inv with
  | Check.Diverged _ -> ()
  | _ -> Alcotest.fail "expected divergence on a doctored invariant"

(* [scripted] and [scripted_then_random] follow a script the same way: one
   choice per step, an out-of-range one clamped to [count - 1]. They differ
   only past its end. *)
let test_script_followers_agree () =
  let script = [ 1; 7; 0; 5 ] and counts = [ 3; 3; 4; 2 ] in
  let a = Explore.scripted script in
  let b = Explore.scripted_then_random script (Prng.create 5L) in
  List.iter2
    (fun want count ->
      let c = a count in
      checki "same scripted choice" c (b count);
      checki "clamped to count - 1" (min want (count - 1)) c)
    script counts;
  checki "scripted pads with 0" 0 (a 6);
  for _ = 1 to 50 do
    let c = b 3 in
    checkb "random suffix in range" true (c >= 0 && c < 3)
  done

let suite =
  [
    ("oracle: termination (honest deadlock)", `Quick, test_oracle_termination);
    ("oracle: agreement + healthy pass", `Quick, test_oracle_agreement_and_pass);
    ("oracle: spec bound", `Quick, test_oracle_spec_bound);
    ("replay: overruns are counted", `Quick, test_replay_counts_overruns);
    ("replay: clamps are counted", `Quick, test_replay_counts_clamps);
    ("replay: recorded script is faithful", `Quick, test_recorded_script_replays_faithfully);
    ("shrink: reaches known minima (golden)", `Quick, test_shrink_to_known_minimum);
    ("shrink: passing run is a no-op", `Quick, test_shrink_passing_is_noop);
    ("shrink: respects the test budget", `Quick, test_shrink_respects_budget);
    ("shrink: fault plan is minimized", `Quick, test_shrink_crash_plan);
    ("fuzz: finds, shrinks and replays the planted bug", `Quick, test_fuzz_finds_and_shrinks_planted_bug);
    ("repro: JSON round-trip", `Quick, test_repro_json_roundtrip);
    ("repro: golden file replays identically", `Quick, test_repro_golden_file);
    ("repro: malformed input rejected", `Quick, test_repro_rejects_garbage);
    ("registry: protocols fuzz clean", `Quick, test_registry_protocols_clean);
    ("registry: unknown attacks rejected cleanly", `Quick, test_unknown_attack_rejected);
    ("replay: doctored repros diverge", `Quick, test_replay_detects_divergence);
    ("replay: scripted and campaign arbiters follow a script alike", `Quick, test_script_followers_agree);
  ]
