(* Experiments E-3.4, E-3.7 and E-3.12: the Byzantine-minority upper bounds.

   E-3.4  — deterministic committees: Q = (2t+1)·n/k and the crossover with
            naive as beta approaches 1/2.
   E-3.7  — the 2-cycle randomized protocol: the three segment-count regimes
            and the measured w.h.p. success rate vs the Chernoff budget.
   E-3.12 — the multi-cycle protocol: expected Q vs the 2-cycle protocol. *)

open Dr_core
open Exp_common
module Table = Dr_stats.Table
module Summary = Dr_stats.Summary
module Chernoff = Dr_stats.Chernoff

let committee_crossover () =
  section "E-3.4: deterministic committees — Q = (2t+1)n/k and the naive crossover";
  let k = 32 and n = 16384 in
  let table = Table.create [ "beta"; "t"; "Q committee"; "(2t+1)n/k"; "Q naive"; "winner"; "ok" ] in
  List.iter
    (fun t ->
      let inst = byz_inst ~seed:21L ~k ~n ~t () in
      let r =
        Exec.run_core ~opts:(Exec.with_latency (jitter 21L) Exec.default)
          (Committee.core ~attack:Committee.Equivocate ()) inst
      in
      let theory = ((2 * t) + 1) * n / k in
      Table.add_row table
        [
          Printf.sprintf "%.3f" (Problem.beta inst);
          string_of_int t;
          string_of_int r.Problem.q_max;
          string_of_int theory;
          string_of_int n;
          (if r.Problem.q_max < n then "committee" else "naive");
          (if r.Problem.ok then "yes" else "NO");
        ])
    [ 1; 2; 4; 8; 12; 14; 15 ];
  Table.print table;
  note
    "\nQ grows linearly in 2t+1 and meets the naive line exactly as beta -> 1/2:\n\
     the deterministic price of Byzantine faults ([3]'s lower bound, met).\n"

let two_cycle_regimes () =
  section "E-3.7: 2-cycle protocol — the three segment-count regimes";
  let table =
    Table.create [ "k"; "t"; "n"; "case"; "s"; "rho"; "Q"; "n/s + k"; "Q/n"; "ok" ]
  in
  List.iter
    (fun (k, t, n) ->
      let inst = byz_inst ~seed:23L ~k ~n ~t () in
      let s, rho = Byz_2cycle.plan ~k ~n ~t in
      let case = if s = 1 then "3 (naive)" else if s >= n then "2" else "1" in
      let r =
        Exec.run_core ~opts:(Exec.with_latency (jitter 23L) Exec.default)
          (Byz_2cycle.core ~attack:Byz_2cycle.Near_miss ()) inst
      in
      Table.add_row table
        [
          string_of_int k;
          string_of_int t;
          string_of_int n;
          case;
          string_of_int s;
          string_of_int rho;
          string_of_int r.Problem.q_max;
          string_of_int ((n / s) + k);
          Printf.sprintf "%.3f" (float_of_int r.Problem.q_max /. float_of_int n);
          (if r.Problem.ok then "yes" else "NO");
        ])
    [
      (16, 4, 8192) (* case 3: too few peers, falls back to naive *);
      (128, 8, 32768) (* case 1: full segmentation *);
      (128, 32, 32768) (* case 1, higher beta -> fewer segments *);
      (256, 16, 65536) (* case 1, larger network *);
      (512, 64, 65536);
    ];
  Table.print table

let two_cycle_whp () =
  section "E-3.7: 2-cycle protocol — measured failure rate vs Chernoff budget";
  let k = 96 and n = 4096 and t = 16 in
  let s, rho = Byz_2cycle.plan ~k ~n ~t in
  let runs = 200 in
  let outcomes =
    List.map
      (fun seed ->
        let inst = byz_inst ~seed ~k ~n ~t () in
        let opts = Exec.with_latency (jitter seed) Exec.default in
        (Exec.run_core ~opts
           (Byz_2cycle.core ~attack:Byz_2cycle.Consistent_lie ()) inst).Problem.ok)
      (List.init runs (fun i -> Int64.of_int (i + 1)))
  in
  let failures = List.length (List.filter not outcomes) in
  let predicted = Chernoff.coverage_failure ~honest:(k - (2 * t)) ~segments:s ~rho in
  note "k=%d t=%d n=%d: s=%d rho=%d\n" k t n s rho;
  note "measured failures: %d / %d runs (rate %.4f)\n" failures runs
    (float_of_int failures /. float_of_int runs);
  note "Chernoff/union budget for the coverage event: %.2e\n" predicted

let multicycle_vs_two_cycle () =
  section "E-3.12: multi-cycle vs 2-cycle — decision-tree spend under flooding (30 seeds)";
  (* Same base share for both (s = s1 = 4, rho = 1), worst-case flood attack:
     32 coalitions each push a distinct forged candidate for segment 0. The
     2-cycle protocol makes every peer resolve every segment, so everyone
     pays the flooded tree; the multi-cycle protocol only pays when its own
     pick covers the flooded segment — the expectation argument of the
     theorem, isolated in the tree-queries column. *)
  let k = 128 and n = 8192 and t = 32 in
  let s = 4 in
  let base = n / s in
  let runs proto =
    over_seeds ~seeds:30 (fun seed ->
        let inst = byz_inst ~seed ~k ~n ~t () in
        let opts = Exec.with_latency (jitter seed) Exec.default in
        match proto with
        | `Two ->
          Exec.run_core ~opts
            (Byz_2cycle.core ~attack:(Byz_2cycle.Flood 32) ~segments:s ~rho:1 ()) inst
        | `Multi ->
          Exec.run_core ~opts
            (Byz_multicycle.core ~attack:(Byz_multicycle.Flood 32) ~segments:s ~rho:1 ()) inst)
  in
  let r2 = runs `Two and rm = runs `Multi in
  let table =
    Table.create
      [ "protocol"; "base n/s"; "mean tree Q/peer"; "max tree Q"; "bits sent (mean)"; "all ok" ]
  in
  let row name rs =
    let mean_tree =
      Summary.of_floats (List.map (fun r -> r.Problem.q_mean -. float_of_int base) rs)
    in
    let max_tree = Summary.of_ints (List.map (fun r -> r.Problem.q_max - base) rs) in
    let bits = Summary.of_ints (List.map (fun r -> r.Problem.bits_sent) rs) in
    Table.add_row table
      [
        name;
        string_of_int base;
        Printf.sprintf "%.1f" mean_tree.Summary.mean;
        Printf.sprintf "%.0f" max_tree.Summary.max;
        Printf.sprintf "%.2e" bits.Summary.mean;
        (if List.for_all (fun r -> r.Problem.ok) rs then "yes" else "NO");
      ]
  in
  row "2-cycle (Thm 3.7)" r2;
  row "multi-cycle (Thm 3.12)" rm;
  Table.print table;
  note
    "\nUnder sustained per-cycle flooding the 2-cycle protocol charges every peer the\n\
     flooded tree once; the multi-cycle protocol charges only peers whose pick covers\n\
     the flooded region in early cycles but re-exposes everyone in the final cycles,\n\
     and ships Theta(n)-bit reports before the last one (~3x the 2-cycle bit volume;\n\
     the last cycle is output, not reported) — the expectation-vs-message tradeoff\n\
     the two theorems negotiate.\n"

let attack_catalog () =
  section "E-3.7: 2-cycle protocol under every catalog attack (k=128, t=16)";
  let k = 128 and n = 16384 and t = 16 in
  let table = Table.create [ "attack"; "Q"; "T"; "ok" ] in
  List.iter
    (fun (label, attack) ->
      let inst = byz_inst ~seed:31L ~k ~n ~t () in
      let opts = Exec.with_latency (jitter 31L) Exec.default in
      let r = Exec.run_core ~opts (Byz_2cycle.core ~attack ()) inst in
      Table.add_row table
        [
          label;
          string_of_int r.Problem.q_max;
          Printf.sprintf "%.1f" r.Problem.time;
          (if r.Problem.ok then "yes" else "NO");
        ])
    [
      ("silent", Byz_2cycle.Silent);
      ("near-miss strings", Byz_2cycle.Near_miss);
      ("consistent lie", Byz_2cycle.Consistent_lie);
      ("equivocation", Byz_2cycle.Equivocate);
    ];
  Table.print table;
  note "\nnear-miss forgeries cost extra decision-tree queries; equivocation dies at rho.\n"

let run () =
  committee_crossover ();
  two_cycle_regimes ();
  two_cycle_whp ();
  multicycle_vs_two_cycle ();
  attack_catalog ()
