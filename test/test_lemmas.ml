(* "Executable lemmas": the combinatorial facts of the paper's Section 2
   analysis, checked on live executions via the Crash_general monitor hook
   and as pure math. *)

open Dr_core
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan
module Prng = Dr_engine.Prng

let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Overlap Lemma (Observation, Section 2.1): any two (k-1)-subsets of k
   peers share a member — pure counting, checked exhaustively. *)
(* ------------------------------------------------------------------ *)

let test_overlap_lemma () =
  (* Needs k >= 3: the overlap of two (k-1)-subsets has size k-2. *)
  for k = 3 to 8 do
    (* A (k-1)-subset is "all but one": identify it by the excluded peer. *)
    for ex1 = 0 to k - 1 do
      for ex2 = 0 to k - 1 do
        let s1 = List.filter (fun p -> p <> ex1) (List.init k Fun.id) in
        let s2 = List.filter (fun p -> p <> ex2) (List.init k Fun.id) in
        let overlap = List.exists (fun p -> List.mem p s2) s1 in
        checkb (Printf.sprintf "k=%d overlap" k) true overlap
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Claims 1 and 4 on live executions of Algorithm 2.                   *)
(* ------------------------------------------------------------------ *)

type snapshot = { assign : int array; know : bool array }

let collect_snapshots ~k ~n ~t ~seed ~after_sends =
  let inst = Problem.random_instance ~seed ~k ~n ~t () in
  (* (phase, peer) -> snapshot at the start of that phase. *)
  let snaps : (int * int, snapshot) Hashtbl.t = Hashtbl.create 64 in
  let monitor ~peer ~phase ~assign ~know =
    Hashtbl.replace snaps (phase, peer) { assign; know }
  in
  let opts =
    Exec.default
    |> Exec.with_latency (Latency.jittered (Prng.create seed))
    |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
  in
  let report = Exec.run_core ~opts (Crash_general.core ~monitor ()) inst in
  (inst, snaps, report)

let phases_of snaps =
  Hashtbl.fold (fun (phase, _) _ acc -> max acc phase) snaps 0

(* Claim 1: for honest v, w and every bit b, at the start of any common
   phase: same assignee, or one of them already knows b. *)
let check_claim1 inst snaps =
  let k = inst.Problem.k and n = Problem.n inst in
  let honest = Problem.honest inst in
  let violations = ref 0 in
  for phase = 1 to phases_of snaps do
    for v = 0 to k - 1 do
      for w = v + 1 to k - 1 do
        if honest v && honest w then begin
          match (Hashtbl.find_opt snaps (phase, v), Hashtbl.find_opt snaps (phase, w)) with
          | Some sv, Some sw ->
            for b = 0 to n - 1 do
              if
                sv.assign.(b) <> sw.assign.(b)
                && (not sv.know.(b))
                && not sw.know.(b)
              then incr violations
            done
          | _ -> ()
        end
      done
    done
  done;
  !violations

(* Claim 4 (relaxed to the hash rule): the unknown count of every honest
   peer shrinks by at least roughly the beta factor each phase. *)
let check_claim4 inst snaps =
  let k = inst.Problem.k in
  let t = Problem.t inst in
  let honest = Problem.honest inst in
  let unknown_of s = Array.fold_left (fun acc kn -> if kn then acc else acc + 1) 0 s.know in
  let ok = ref true in
  for phase = 1 to phases_of snaps - 1 do
    for v = 0 to k - 1 do
      if honest v then begin
        match (Hashtbl.find_opt snaps (phase, v), Hashtbl.find_opt snaps (phase + 1, v)) with
        | Some before, Some after ->
          let u0 = unknown_of before and u1 = unknown_of after in
          (* Exact claim is u1 <= u0 * t/k; the pseudo-random rule spreads
             within a constant of even, so allow slack of 2x plus k. *)
          let bound = (2 * u0 * (t + 1) / k) + k in
          if u1 > min u0 bound then ok := false
        | _ -> ()
      end
    done
  done;
  !ok

let run_lemma_checks ~k ~n ~t ~seed ~after_sends =
  let inst, snaps, report = collect_snapshots ~k ~n ~t ~seed ~after_sends in
  checkb "download ok" true report.Problem.ok;
  checkb "some phases observed" true (phases_of snaps >= 1);
  Alcotest.(check int) "Claim 1: no violations" 0 (check_claim1 inst snaps);
  checkb "Claim 4: geometric shrink" true (check_claim4 inst snaps)

let test_claims_small () = run_lemma_checks ~k:6 ~n:120 ~t:2 ~seed:3L ~after_sends:1

let test_claims_majority_crash () = run_lemma_checks ~k:8 ~n:160 ~t:5 ~seed:7L ~after_sends:0

let test_claims_sweep () =
  List.iter
    (fun seed -> run_lemma_checks ~k:7 ~n:84 ~t:3 ~seed ~after_sends:2)
    [ 11L; 12L; 13L; 14L ]

let suite =
  [
    ("overlap lemma (exhaustive, 3<=k<=8)", `Quick, test_overlap_lemma);
    ("claims 1 & 4 on a live run", `Quick, test_claims_small);
    ("claims 1 & 4 under majority crash", `Quick, test_claims_majority_crash);
    ("claims 1 & 4, seed sweep", `Quick, test_claims_sweep);
  ]
