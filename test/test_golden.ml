(* Golden regression values: every protocol on a fixed instance, fixed
   schedule, fixed seeds. The simulator is fully deterministic, so any
   change to these numbers means an intentional behaviour change (update
   the table) or an accidental one (a bug). *)

open Dr_core
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan
module Prng = Dr_engine.Prng
module Fault = Dr_adversary.Fault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type golden = { ok : bool; q_max : int; msgs : int; bits : int; time : float }

let expect label g (r : Problem.report) =
  checkb (label ^ " ok") g.ok r.Problem.ok;
  checki (label ^ " Q") g.q_max r.Problem.q_max;
  checki (label ^ " M") g.msgs r.Problem.msgs;
  checki (label ^ " bits") g.bits r.Problem.bits_sent;
  Alcotest.(check (float 0.001)) (label ^ " T") g.time r.Problem.time

let jopts inst =
  Exec.default
  |> Exec.with_latency (Latency.jittered (Prng.create 5L))
  |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:2)

let jitter_only () = Exec.with_latency (Latency.jittered (Prng.create 5L)) Exec.default

let crash () = Problem.random_instance ~seed:1234L ~k:12 ~n:1200 ~t:4 ()

let test_naive () =
  expect "naive"
    { ok = true; q_max = 1200; msgs = 0; bits = 0; time = 0. }
    (Exec.run_core (Naive.core ()) (crash ()))

let test_balanced () =
  let inst = { (crash ()) with Problem.fault = Fault.choose ~k:12 Fault.None_faulty } in
  expect "balanced"
    { ok = true; q_max = 100; msgs = 132; bits = 21648; time = 1.0 }
    (Exec.run_core (Balanced.core ()) inst)

let test_crash_single () =
  let inst = { (crash ()) with Problem.fault = Fault.choose ~k:12 (Fault.Explicit [ 7 ]) } in
  expect "crash-single"
    { ok = true; q_max = 100; msgs = 538; bits = 192132; time = 1.687 }
    (Exec.run_core ~opts:(jopts inst) (Crash_single.core ()) inst)

let test_crash_general () =
  let inst = crash () in
  expect "crash-general"
    { ok = true; q_max = 203; msgs = 1690; bits = 429918; time = 10.467 }
    (Exec.run_core ~opts:(jopts inst) (Crash_general.core ()) inst)

let test_committee () =
  let inst = Problem.random_instance ~seed:1234L ~model:Problem.Byzantine ~k:12 ~n:1200 ~t:4 () in
  expect "byz-committee"
    { ok = true; q_max = 1200; msgs = 132; bits = 87648; time = 0.764 }
    (Exec.run_core ~opts:(jitter_only ()) (Committee.core ~attack:Committee.Equivocate ()) inst)

let byz_big () = Problem.random_instance ~seed:1234L ~model:Problem.Byzantine ~k:40 ~n:1200 ~t:6 ()

let test_2cycle () =
  expect "byz-2cycle"
    { ok = true; q_max = 600; msgs = 1326; bits = 880464; time = 0.906 }
    (Exec.run_core ~opts:(jitter_only ())
       (Byz_2cycle.core ~attack:Byz_2cycle.Near_miss ~segments:2 ~rho:2 ())
       (byz_big ()))

let test_multicycle () =
  expect "byz-multicycle"
    { ok = true; q_max = 600; msgs = 1326; bits = 880464; time = 0.913 }
    (Exec.run_core ~opts:(jitter_only ())
       (Byz_multicycle.core ~attack:Byz_multicycle.Near_miss ~segments:2 ())
       (byz_big ()))

(* Full-report determinism: two runs with identical seeds/opts must agree on
   every field of the report (not just the pinned Q/T/M numbers above). Runs
   go through Registry.run so the uniform dispatch path is covered too. *)

let registry_run name ?segments ~attack inst =
  (Registry.find_exn name).Registry.run ~opts:(jitter_only ()) ~attack ?segments inst

let test_determinism_2cycle () =
  let run () = registry_run "byz-2cycle" ~segments:2 ~attack:"nearmiss" (byz_big ()) in
  checkb "identical reports" true (run () = run ())

let test_determinism_crash_general () =
  let run () =
    let inst = crash () in
    (Registry.find_exn "crash-general").Registry.run ~opts:(jopts inst) inst
  in
  checkb "identical reports" true (run () = run ())

(* Event-stream goldens: the digest of the whole saved [Trace] of every
   registry protocol on a small admitted instance, under unit and jittered
   latencies, each with the latency-ordered heap and a random arbiter. The
   crash-model entries run without crashes and with every faulty peer dying
   after its first send; the Byzantine entries run their default and
   adaptive attacks. A change that reorders, adds or drops one event, or
   moves one time, changes a line. Regenerate with DR_CHECK_BLESS=1. *)
let trace_digest ?opts:(base = Exec.default) e ~attack inst =
  let trace = Dr_engine.Trace.create () in
  ignore (e.Registry.run ~opts:(Exec.with_trace trace base) ~attack inst);
  let path = Filename.temp_file "dr_trace_digest" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dr_engine.Trace.save trace path;
      Digest.to_hex (Digest.file path))

let trace_digest_lines () =
  List.concat_map
    (fun e ->
      let byz = e.Registry.model = Problem.Byzantine in
      let inst =
        List.find
          (fun inst -> Registry.admits e inst = Ok ())
          (List.map
             (fun t ->
               if byz then
                 Problem.random_instance ~seed:21L ~model:Problem.Byzantine ~k:24 ~n:48 ~t ()
               else Problem.random_instance ~seed:21L ~k:6 ~n:96 ~t ())
             [ 2; 1; 0 ])
      in
      let runs =
        if byz then
          List.map
            (fun a -> (a, Crash_plan.none))
            (List.filter
               (fun a -> String.equal a "default" || List.exists (String.equal a) e.Registry.attacks)
               [ "default"; "adaptive" ])
        else
          [
            ("none", Crash_plan.none);
            ("mid_broadcast:1", Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:1);
          ]
      in
      List.concat_map
        (fun (what, crash) ->
          List.concat_map
            (fun (lname, latency) ->
              List.map
                (fun (sname, arbiter) ->
                  let opts =
                    Exec.make_opts ~latency:(latency ()) ~crash ?arbiter:(arbiter ()) ()
                  in
                  let attack = if byz then what else "default" in
                  Printf.sprintf "%s %s %s %s %s\n" (Registry.name e) what lname sname
                    (trace_digest ~opts e ~attack inst))
                [
                  ("heap", fun () -> None);
                  ("random", fun () -> Some (Dr_engine.Explore.random (Prng.create 5L)));
                ])
            [ ("unit", fun () -> Latency.unit_delay); ("jitter", fun () -> Latency.jittered (Prng.create 3L)) ])
        runs)
    Registry.all

let test_trace_digests () =
  Test_check.bless_or_compare ~path:"trace_digests.golden" ~label:"trace digests"
    (String.concat "" (trace_digest_lines ()))

let suite =
  [
    ("golden: naive", `Quick, test_naive);
    ("golden: balanced", `Quick, test_balanced);
    ("golden: crash-single", `Quick, test_crash_single);
    ("golden: crash-general", `Quick, test_crash_general);
    ("golden: byz-committee", `Quick, test_committee);
    ("golden: byz-2cycle", `Quick, test_2cycle);
    ("golden: byz-multicycle", `Quick, test_multicycle);
    ("determinism: byz-2cycle full report", `Quick, test_determinism_2cycle);
    ("determinism: crash-general full report", `Quick, test_determinism_crash_general);
    ("golden: trace digests", `Quick, test_trace_digests);
  ]
