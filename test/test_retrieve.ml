(* Tests for the general-retrieval reduction (f(X) = download + local
   computation) and extra engine coverage for link serialization. *)

open Dr_core
module Bitarray = Dr_source.Bitarray
module Crash_plan = Dr_adversary.Crash_plan

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let ba = Bitarray.of_string

(* ------------------------------------------------------------------ *)
(* Retrieval functions on known arrays                                 *)
(* ------------------------------------------------------------------ *)

let test_parity () =
  checkb "odd" true (Retrieve.parity.Retrieve.compute (ba "10110"));
  checkb "even" false (Retrieve.parity.Retrieve.compute (ba "110011"))

let test_popcount () =
  checki "count" 3 (Retrieve.popcount.Retrieve.compute (ba "010110"))

let test_find_first () =
  checkb "first one" true ((Retrieve.find_first true).Retrieve.compute (ba "00100") = Some 2);
  checkb "first zero" true ((Retrieve.find_first false).Retrieve.compute (ba "110") = Some 2);
  checkb "absent" true ((Retrieve.find_first true).Retrieve.compute (ba "000") = None)

let test_all_equal () =
  checkb "zeros" true (Retrieve.all_equal.Retrieve.compute (ba "0000"));
  checkb "ones" true (Retrieve.all_equal.Retrieve.compute (ba "111"));
  checkb "mixed" false (Retrieve.all_equal.Retrieve.compute (ba "0100"))

let test_longest_run () =
  checki "run" 4 (Retrieve.longest_run.Retrieve.compute (ba "1011110"));
  checki "single" 1 (Retrieve.longest_run.Retrieve.compute (ba "0"));
  checki "alternating" 1 (Retrieve.longest_run.Retrieve.compute (ba "010101"))

let test_slice () =
  let p = Retrieve.slice ~pos:2 ~len:3 in
  checkb "slice" true (Bitarray.equal (p.Retrieve.compute (ba "0011010")) (ba "110"))

(* ------------------------------------------------------------------ *)
(* The reduction end-to-end                                            *)
(* ------------------------------------------------------------------ *)

let test_solve_via_crash_protocol () =
  let inst = Problem.random_instance ~seed:5L ~k:8 ~n:200 ~t:3 () in
  let opts = Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:1) Exec.default in
  let check_problem name problem =
    let r = Retrieve.solve (Crash_general.core ()) ~opts inst problem in
    checkb (name ^ " download ok") true r.Retrieve.download.Problem.ok;
    checkb (name ^ " value correct") true (Retrieve.check problem inst r)
  in
  check_problem "parity" Retrieve.parity;
  check_problem "popcount" Retrieve.popcount;
  check_problem "longest-run" Retrieve.longest_run;
  check_problem "all-equal" Retrieve.all_equal

let test_solve_via_byzantine_protocol () =
  let inst = Problem.random_instance ~seed:6L ~model:Problem.Byzantine ~k:9 ~n:120 ~t:4 () in
  let r = Retrieve.solve (Committee.core ()) inst Retrieve.popcount in
  checkb "value present" true (r.Retrieve.value <> None);
  checkb "correct" true (Retrieve.check Retrieve.popcount inst r)

let test_solve_failure_yields_no_value () =
  (* Balanced deadlocks under a crash: the reduction must report no value. *)
  let inst = Problem.random_instance ~seed:7L ~k:6 ~n:60 ~t:1 () in
  let opts = Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0) Exec.default in
  let r = Retrieve.solve (Balanced.core ()) ~opts inst Retrieve.parity in
  checkb "no value" true (r.Retrieve.value = None);
  checkb "check false" false (Retrieve.check Retrieve.parity inst r)

(* ------------------------------------------------------------------ *)
(* Engine: link serialization                                          *)
(* ------------------------------------------------------------------ *)

module Smsg = struct
  type t = Big of int | Small

  let size_bits = function Big _ -> 1000 | Small -> 10
  let tag = function Big _ -> "big" | Small -> "small"
end

module S = Dr_engine.Sim.Make (Smsg)

let test_link_serialization_fifo () =
  (* A big message followed by a small one on the same link: the small one
     queues behind it (FIFO), arriving at transmission(big) +
     transmission(small) + propagation. *)
  let cfg =
    {
      (Dr_engine.Sim.default_config ~k:2 ~query_bit:(fun ~peer:_ _ -> false)) with
      link_rate = 100.;
      latency = (fun ~src:_ ~dst:_ ~size_bits:_ -> 0.5);
    }
  in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          S.send 1 (Smsg.Big 1);
          S.send 1 Smsg.Small;
          0.
        end
        else begin
          let _ = S.receive () in
          let t_big = S.now () in
          let _ = S.receive () in
          let t_small = S.now () in
          (t_big *. 1000.) +. t_small
        end)
  in
  match outcome.Dr_engine.Sim.outputs.(1) with
  | Some (_, v) ->
    let t_big = Float.of_int (int_of_float (v /. 1000.)) in
    ignore t_big;
    (* big: 1000/100 + 0.5 = 10.5; small: 10 + 0.1 + 0.5 = 10.6 *)
    Alcotest.(check (float 0.001)) "big then queued small" (10500. +. 10.6) v
  | None -> Alcotest.fail "no output"

let test_link_serialization_links_independent () =
  (* Two different destinations do not queue behind each other. *)
  let cfg =
    {
      (Dr_engine.Sim.default_config ~k:3 ~query_bit:(fun ~peer:_ _ -> false)) with
      link_rate = 100.;
      latency = (fun ~src:_ ~dst:_ ~size_bits:_ -> 0.);
    }
  in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          S.send 1 (Smsg.Big 1);
          S.send 2 (Smsg.Big 2);
          0.
        end
        else begin
          let _ = S.receive () in
          S.now ()
        end)
  in
  (match outcome.Dr_engine.Sim.outputs.(1) with
  | Some (_, t) -> Alcotest.(check (float 0.001)) "dst 1 at 10" 10. t
  | None -> Alcotest.fail "no output 1");
  match outcome.Dr_engine.Sim.outputs.(2) with
  | Some (_, t) -> Alcotest.(check (float 0.001)) "dst 2 also at 10 (parallel links)" 10. t
  | None -> Alcotest.fail "no output 2"

let test_link_rate_infinite_is_default () =
  let cfg = Dr_engine.Sim.default_config ~k:2 ~query_bit:(fun ~peer:_ _ -> false) in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          S.send 1 (Smsg.Big 1);
          S.send 1 (Smsg.Big 2);
          0.
        end
        else begin
          let _ = S.receive () in
          let _ = S.receive () in
          S.now ()
        end)
  in
  match outcome.Dr_engine.Sim.outputs.(1) with
  | Some (_, t) -> Alcotest.(check (float 0.001)) "no serialization" 1. t
  | None -> Alcotest.fail "no output"

let suite =
  [
    ("retrieve: parity", `Quick, test_parity);
    ("retrieve: popcount", `Quick, test_popcount);
    ("retrieve: find-first", `Quick, test_find_first);
    ("retrieve: all-equal", `Quick, test_all_equal);
    ("retrieve: longest-run", `Quick, test_longest_run);
    ("retrieve: slice", `Quick, test_slice);
    ("retrieve: via crash protocol", `Quick, test_solve_via_crash_protocol);
    ("retrieve: via byzantine protocol", `Quick, test_solve_via_byzantine_protocol);
    ("retrieve: failed download yields no value", `Quick, test_solve_failure_yields_no_value);
    ("engine: link FIFO serialization", `Quick, test_link_serialization_fifo);
    ("engine: links independent", `Quick, test_link_serialization_links_independent);
    ("engine: infinite rate default", `Quick, test_link_rate_infinite_is_default);
  ]
