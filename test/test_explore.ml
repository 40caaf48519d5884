(* Systematic schedule exploration: small instances checked against every
   (or a bounded prefix of every) delivery order. *)

open Dr_core
module Explore = Dr_engine.Explore
module Sim = Dr_engine.Sim
module Prng = Dr_engine.Prng
module Fault = Dr_adversary.Fault
module Crash_plan = Dr_adversary.Crash_plan
module Bitarray = Dr_source.Bitarray

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A toy two-peer echo as a sanity check of the DFS mechanics. *)
module Msg = struct
  type t = int

  let size_bits _ = 8
  let tag = string_of_int
end

module S = Sim.Make (Msg)

let test_dfs_covers_tiny_space () =
  (* Two peers each broadcast one message and receive one: the only
     schedule freedom is the order of the two start events and the two
     deliveries. The space is small and must be exhausted. *)
  let run ~arbiter =
    let cfg =
      {
        (Sim.default_config ~k:2 ~query_bit:(fun ~peer:_ _ -> false)) with
        arbiter = Some arbiter;
      }
    in
    let outcome =
      S.run cfg (fun i ->
          S.send (1 - i) i;
          let src, v = S.receive () in
          src = v)
    in
    Array.for_all (function Some (_, true) -> true | _ -> false) outcome.Sim.outputs
  in
  let r = Explore.dfs ~budget:10_000 ~run in
  checkb "exhausted" true r.Explore.exhausted;
  checki "no failures" 0 r.Explore.failures;
  checkb "several schedules" true (r.Explore.schedules_run > 1)

let test_dfs_finds_planted_bug () =
  (* A deliberately order-sensitive "protocol": peer 0 asserts that peer 1's
     message arrives before peer 2's. The explorer must find a schedule
     violating it, and the failing script must replay to the same failure. *)
  let run ~arbiter =
    let cfg =
      {
        (Sim.default_config ~k:3 ~query_bit:(fun ~peer:_ _ -> false)) with
        arbiter = Some arbiter;
      }
    in
    let outcome =
      S.run cfg (fun i ->
          if i = 0 then begin
            let first, _ = S.receive () in
            let _ = S.receive () in
            first = 1
          end
          else begin
            S.send 0 i;
            true
          end)
    in
    (match outcome.Sim.outputs.(0) with Some (_, ok) -> ok | None -> false)
  in
  let r = Explore.dfs ~budget:10_000 ~run in
  checkb "found the bug" true (r.Explore.failures > 0);
  (match r.Explore.first_failure with
  | Some script -> checkb "failure replays" false (run ~arbiter:(Explore.scripted script))
  | None -> Alcotest.fail "no script recorded")

let check_crash_single ~budget ~k ~n ~after_sends =
  let x = Bitarray.random (Prng.create 3L) n in
  let fault = Fault.choose ~k (Fault.Explicit [ k - 1 ]) in
  let inst = Problem.make ~k ~x fault in
  let run ~arbiter =
    let opts =
      Exec.default
      |> Exec.with_crash (Crash_plan.mid_broadcast fault ~after_sends)
      |> Exec.with_arbiter arbiter
    in
    (Exec.run_core ~opts (Crash_single.core ()) inst).Problem.ok
  in
  Explore.dfs ~budget ~run

let test_crash_single_schedule_prefix () =
  (* Algorithm 1 on 3 peers, 3 bits, one silent crash: check a large DFS
     prefix of the schedule tree. Every schedule must download correctly. *)
  let r = check_crash_single ~budget:1_500 ~k:3 ~n:3 ~after_sends:0 in
  checki "no failing schedule" 0 r.Explore.failures;
  checkb "ran the full budget or exhausted" true
    (r.Explore.exhausted || r.Explore.schedules_run = 1_500)

let test_crash_single_partial_broadcast_schedules () =
  (* The mid-broadcast crash (1 completed send) across schedules. *)
  let r = check_crash_single ~budget:1_500 ~k:3 ~n:3 ~after_sends:1 in
  checki "no failing schedule" 0 r.Explore.failures

let test_crash_general_schedule_prefix () =
  let k = 3 and n = 3 in
  let x = Bitarray.random (Prng.create 7L) n in
  let fault = Fault.choose ~k (Fault.Explicit [ 1 ]) in
  let inst = Problem.make ~k ~x fault in
  let run ~arbiter =
    let opts =
      Exec.default
      |> Exec.with_crash (Crash_plan.mid_broadcast fault ~after_sends:1)
      |> Exec.with_arbiter arbiter
    in
    (Exec.run_core ~opts (Crash_general.core ()) inst).Problem.ok
  in
  let r = Explore.dfs ~budget:1_200 ~run in
  checki "no failing schedule" 0 r.Explore.failures

let test_balanced_exhaustive_two_peers () =
  (* Fault-free balanced download with 2 peers / 2 bits: tiny enough to
     exhaust the whole schedule tree. *)
  let inst = Problem.random_instance ~seed:5L ~k:2 ~n:2 ~t:0 () in
  let run ~arbiter =
    (Exec.run_core ~opts:(Exec.with_arbiter arbiter Exec.default) (Balanced.core ()) inst)
      .Problem.ok
  in
  let r = Explore.dfs ~budget:50_000 ~run in
  checkb "exhausted" true r.Explore.exhausted;
  checki "no failures" 0 r.Explore.failures

let test_random_arbiter_fuzz () =
  (* Random schedules beyond the DFS prefix: crash-general, 4 peers. *)
  let inst = Problem.random_instance ~seed:9L ~k:4 ~n:8 ~t:1 () in
  let ok = ref true in
  for seed = 1 to 50 do
    let opts =
      Exec.default
      |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:2)
      |> Exec.with_arbiter (Explore.random (Prng.create (Int64.of_int seed)))
    in
    if not (Exec.run_core ~opts (Crash_general.core ()) inst).Problem.ok then ok := false
  done;
  checkb "all random schedules correct" true !ok

let suite =
  [
    ("dfs exhausts a tiny space", `Quick, test_dfs_covers_tiny_space);
    ("dfs finds a planted order bug", `Quick, test_dfs_finds_planted_bug);
    ("crash-single: silent crash, schedule prefix", `Quick, test_crash_single_schedule_prefix);
    ("crash-single: partial broadcast schedules", `Quick, test_crash_single_partial_broadcast_schedules);
    ("crash-general: schedule prefix", `Quick, test_crash_general_schedule_prefix);
    ("balanced: exhaustive 2-peer space", `Quick, test_balanced_exhaustive_two_peers);
    ("random-arbiter fuzz", `Quick, test_random_arbiter_fuzz);
  ]
