(* Tests for the verdict/orchestration layer: Exec must catch lying and
   silent protocols, aggregate only over nonfaulty peers, and validate
   instances. *)

open Dr_core
module Bitarray = Dr_source.Bitarray
module Fault = Dr_adversary.Fault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

module Msg = struct
  type t = unit

  let size_bits () = 8
  let tag () = "u"
end

module S = Dr_engine.Sim.Make (Msg)

let instance ?(k = 4) ?(t = 1) ?(n = 16) () = Problem.random_instance ~seed:9L ~k ~n ~t ()

let run_with_process ?(opts = Exec.default) inst process =
  let cfg = Exec.build_config inst opts in
  Exec.finish ~protocol:"fake" inst (S.run cfg process)

let test_verdict_catches_wrong_output () =
  let inst = instance () in
  (* Every peer "downloads" the flipped array. *)
  let r = run_with_process inst (fun _ -> Bitarray.flip inst.Problem.x 3) in
  checkb "not ok" false r.Problem.ok;
  checki "all honest peers wrong" 3 (List.length r.Problem.wrong)

let test_verdict_catches_one_liar () =
  let inst = instance () in
  let r =
    run_with_process inst (fun i ->
        if i = 2 then Bitarray.create (Problem.n inst) else Bitarray.copy inst.Problem.x)
  in
  (* Peer 2 is honest per the fault set (faulty = peer 0 under Spread 1),
     so its wrong output must be flagged. *)
  checkb "not ok" false r.Problem.ok;
  checkb "peer 2 flagged" true (List.mem 2 r.Problem.wrong)

let test_verdict_ignores_faulty_outputs () =
  let inst = instance () in
  let faulty = List.hd inst.Problem.fault.Fault.faulty_ids in
  let r =
    run_with_process inst (fun i ->
        if i = faulty then Bitarray.create (Problem.n inst) else Bitarray.copy inst.Problem.x)
  in
  checkb "ok: only the faulty peer lied" true r.Problem.ok

let test_verdict_missing_output_is_wrong () =
  let inst = instance () in
  let r =
    run_with_process inst (fun i ->
        if i = 1 then ignore (S.receive ());
        (* peer 1 blocks forever *)
        Bitarray.copy inst.Problem.x)
  in
  checkb "not ok" false r.Problem.ok;
  checkb "blocked peer flagged" true (List.mem 1 r.Problem.wrong);
  checkb "deadlock status" true
    (match r.Problem.status with Dr_engine.Sim.Deadlock [ 1 ] -> true | _ -> false)

let test_time_is_last_honest_termination () =
  let inst = instance ~k:3 ~t:0 () in
  (* Peer i waits for a message to itself that takes 2i time units. *)
  let latency =
    Dr_adversary.Latency.per_message (fun ~src ~dst:_ ~size_bits:_ -> float_of_int src *. 2.)
  in
  let r =
    run_with_process ~opts:(Exec.make_opts ~latency ()) inst (fun i ->
        S.send i ();
        ignore (S.receive ());
        Bitarray.copy inst.Problem.x)
  in
  checkb "ok" true r.Problem.ok;
  Alcotest.(check (float 0.001)) "T = slowest honest" 4. r.Problem.time

let test_metrics_exclude_faulty_queries () =
  let inst = instance () in
  let faulty = List.hd inst.Problem.fault.Fault.faulty_ids in
  let r =
    run_with_process inst (fun i ->
        if i = faulty then
          for j = 0 to Problem.n inst - 1 do
            ignore (S.query j)
          done
        else ignore (S.query 0);
        Bitarray.copy inst.Problem.x)
  in
  checkb "correct overall" true r.Problem.ok;
  checki "Q counts honest only" 1 r.Problem.q_max;
  checki "q_total honest only" 3 r.Problem.q_total

let test_problem_make_validation () =
  let fault = Fault.choose ~k:4 Fault.None_faulty in
  Alcotest.check_raises "k mismatch"
    (Invalid_argument "Problem.make: fault partition sized for a different k") (fun () ->
      ignore (Problem.make ~k:5 ~x:(Bitarray.create 8) fault));
  Alcotest.check_raises "empty input" (Invalid_argument "Problem.make: empty input array")
    (fun () -> ignore (Problem.make ~k:4 ~x:(Bitarray.create 0) fault));
  Alcotest.check_raises "bad B" (Invalid_argument "Problem.make: message bound must be positive")
    (fun () -> ignore (Problem.make ~k:4 ~b:0 ~x:(Bitarray.create 8) fault))

let test_problem_accessors () =
  let inst = Problem.random_instance ~seed:2L ~k:8 ~n:32 ~t:2 () in
  checki "n" 32 (Problem.n inst);
  checki "t" 2 (Problem.t inst);
  Alcotest.(check (float 1e-9)) "beta" 0.25 (Problem.beta inst);
  Alcotest.(check (float 1e-9)) "gamma" 0.75 (Problem.gamma inst);
  checkb "honest" true (Problem.honest inst 1)

let suite =
  [
    ("verdict: catches wrong output", `Quick, test_verdict_catches_wrong_output);
    ("verdict: catches one liar", `Quick, test_verdict_catches_one_liar);
    ("verdict: ignores faulty outputs", `Quick, test_verdict_ignores_faulty_outputs);
    ("verdict: missing output flagged", `Quick, test_verdict_missing_output_is_wrong);
    ("verdict: T = last honest termination", `Quick, test_time_is_last_honest_termination);
    ("verdict: Q excludes faulty peers", `Quick, test_metrics_exclude_faulty_queries);
    ("problem: make validation", `Quick, test_problem_make_validation);
    ("problem: accessors", `Quick, test_problem_accessors);
  ]
