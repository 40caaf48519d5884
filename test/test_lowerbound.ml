(* Tests for the executable lower-bound constructions (Theorems 3.1/3.2). *)

open Dr_core
module Det_lower = Dr_lowerbound.Det_lower
module Rand_lower = Dr_lowerbound.Rand_lower

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* The cheap deterministic protocol under attack: committees of 6 with
   threshold 2 on 8 peers — terminates with F = {5,6,7} crashed and leaves
   bits unqueried, exactly what Theorem 3.1 needs. *)
let cheap_committee ?opts inst =
  Exec.run_core ?opts (Committee.core ~committee_size:6 ~threshold:2 ()) inst

let naive ?opts inst = Exec.run_core ?opts (Naive.core ()) inst

let test_det_lower_fools_victim () =
  match
    Det_lower.demonstrate ~run:cheap_committee ~f_set:[ 5; 6; 7 ] ~b:72 ~k:8 ~n:64 ()
  with
  | Error e -> Alcotest.failf "construction failed: %s" e
  | Ok ev ->
    checkb "E1 terminates for the victim" false (List.mem ev.Det_lower.victim ev.Det_lower.e1.Problem.wrong);
    checkb "victim left bits unqueried" true (ev.Det_lower.e1_victim_queries < 64);
    checkb "victim fooled in E2" true ev.Det_lower.victim_fooled;
    checkb "views indistinguishable" true ev.Det_lower.views_identical;
    (* The corrupted coalition is a legal majority-setting fault set. *)
    checki "|C| = k - |F| - 1" 4 (List.length ev.Det_lower.corrupted)

let test_det_lower_rejects_naive () =
  (* Against the naive protocol the construction must report that no bit is
     unqueried: the lower bound is tight. *)
  match Det_lower.demonstrate ~run:naive ~f_set:[ 5; 6; 7 ] ~k:8 ~n:32 () with
  | Error e -> checkb "explains tightness" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "naive should not be attackable"

let test_det_lower_victim_in_f_rejected () =
  match Det_lower.demonstrate ~run:cheap_committee ~victim:5 ~f_set:[ 5; 6 ] ~k:8 ~n:32 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "victim inside F must be rejected"

let test_det_lower_hidden_bit_unqueried () =
  match Det_lower.demonstrate ~run:cheap_committee ~f_set:[ 5; 6; 7 ] ~b:72 ~k:8 ~n:64 () with
  | Error e -> Alcotest.failf "construction failed: %s" e
  | Ok ev ->
    (* The hidden bit must belong to a block whose committee excludes the
       victim. *)
    checkb "hidden in range" true (ev.Det_lower.hidden_bit >= 0 && ev.Det_lower.hidden_bit < 64)

let test_rand_lower_failure_rate () =
  (* 21 peers, |F| = 4 slow, |C| = 16 corrupted (beta = 16/21 > 1/2). The
     2-cycle protocol with s = 3 queries ~n/3 bits, so the mirror adversary
     wins about 2/3 of the time. *)
  let run ?opts inst =
    Exec.run_core ?opts (Byz_2cycle.core ~attack:Byz_2cycle.Mirror ~segments:3 ~rho:1 ()) inst
  in
  let seeds = List.init 60 (fun i -> Int64.of_int (i + 1)) in
  let r = Rand_lower.attack ~run ~f_count:4 ~k:21 ~n:60 ~seeds () in
  checki "all runs executed" 60 r.Rand_lower.runs;
  checkb
    (Printf.sprintf "failure rate %.2f near 2/3" r.Rand_lower.failure_rate)
    true
    (r.Rand_lower.failure_rate > 0.45 && r.Rand_lower.failure_rate < 0.85);
  checkb
    (Printf.sprintf "measured %.2f >= predicted floor %.2f - slack" r.Rand_lower.failure_rate
       r.Rand_lower.predicted_failure_floor)
    true
    (r.Rand_lower.failure_rate >= r.Rand_lower.predicted_failure_floor -. 0.15);
  (* Survival and hitting the hidden bit coincide. *)
  checkb "hit rate complements failures" true
    (abs_float (r.Rand_lower.victim_hit_rate +. r.Rand_lower.failure_rate -. 1.) < 0.10)

let test_rand_lower_naive_never_fails () =
  (* Querying everything defeats the mirror adversary — the bound is tight. *)
  let seeds = List.init 10 (fun i -> Int64.of_int (i + 1)) in
  let r = Rand_lower.attack ~run:naive ~f_count:4 ~k:9 ~n:40 ~seeds () in
  checki "no failures" 0 r.Rand_lower.failures;
  checkb "hit every time" true (r.Rand_lower.victim_hit_rate = 1.)

let test_rand_lower_more_queries_fewer_failures () =
  (* Sweeping s downward (more queries per peer) lowers the failure rate:
     the q/n tradeoff of Theorem 3.2, measured. *)
  let rate s =
    let run ?opts inst =
      Exec.run_core ?opts (Byz_2cycle.core ~attack:Byz_2cycle.Mirror ~segments:s ~rho:1 ()) inst
    in
    let seeds = List.init 40 (fun i -> Int64.of_int (100 + i)) in
    (Rand_lower.attack ~run ~f_count:4 ~k:21 ~n:60 ~seeds ()).Rand_lower.failure_rate
  in
  let r6 = rate 6 and r2 = rate 2 in
  checkb (Printf.sprintf "rate(s=6)=%.2f > rate(s=2)=%.2f" r6 r2) true (r6 > r2)

let suite =
  [
    ("det: victim fooled (Thm 3.1)", `Quick, test_det_lower_fools_victim);
    ("det: naive is tight", `Quick, test_det_lower_rejects_naive);
    ("det: victim in F rejected", `Quick, test_det_lower_victim_in_f_rejected);
    ("det: hidden bit sane", `Quick, test_det_lower_hidden_bit_unqueried);
    ("rand: failure rate ~ 1 - q/n (Thm 3.2)", `Quick, test_rand_lower_failure_rate);
    ("rand: naive never fails", `Quick, test_rand_lower_naive_never_fails);
    ("rand: q/n tradeoff", `Quick, test_rand_lower_more_queries_fewer_failures);
  ]
