(* Experiments E-3.1 and E-3.2: the Byzantine-majority lower bounds run as
   constructions, with the measured failure probability against the
   theoretical floor 1 - q/n. *)

open Dr_core
open Exp_common
module Table = Dr_stats.Table
module Det_lower = Dr_lowerbound.Det_lower
module Rand_lower = Dr_lowerbound.Rand_lower

let deterministic () =
  section "E-3.1: Theorem 3.1 — the two-execution construction, machine-checked";
  let run ?opts inst =
    Exec.run_core ?opts (Committee.core ~committee_size:6 ~threshold:2 ()) inst
  in
  match Det_lower.demonstrate ~run ~f_set:[ 5; 6; 7 ] ~b:72 ~k:8 ~n:256 () with
  | Error e -> note "construction failed: %s\n" e
  | Ok ev ->
    let table = Table.create [ "fact"; "value" ] in
    Table.add_row table [ "victim"; string_of_int ev.Det_lower.victim ];
    Table.add_row table
      [ "E1 victim queries"; Printf.sprintf "%d / 256" ev.Det_lower.e1_victim_queries ];
    Table.add_row table [ "hidden bit"; string_of_int ev.Det_lower.hidden_bit ];
    Table.add_row table
      [ "corrupted coalition"; String.concat "," (List.map string_of_int ev.Det_lower.corrupted) ];
    Table.add_row table [ "victim fooled in E2"; string_of_bool ev.Det_lower.victim_fooled ];
    Table.add_row table [ "views identical"; string_of_bool ev.Det_lower.views_identical ];
    Table.print table;
    note
      "\nAny deterministic protocol with Q < n at beta >= 1/2 yields such a pair of\n\
       executions; only the naive protocol (Q = n) escapes — Theorem 3.1 is tight.\n"

let randomized () =
  section "E-3.2: Theorem 3.2 — mirror adversary failure rate vs query budget";
  let table =
    Table.create [ "segments s"; "q mean"; "q/n"; "predicted fail >="; "measured fail"; "hit rate" ]
  in
  let n = 512 in
  let rows =
    List.map
      (fun s ->
        let run ?opts inst =
          Exec.run_core ?opts
            (Byz_2cycle.core ~attack:Byz_2cycle.Mirror ~segments:s ~rho:1 ()) inst
        in
        let seeds = List.init 150 (fun i -> Int64.of_int ((s * 1000) + i + 1)) in
        (s, Rand_lower.attack ~run ~f_count:4 ~k:21 ~n ~seeds ()))
      [ 2; 3; 4; 6; 8 ]
  in
  List.iter
    (fun (s, r) ->
      Table.add_row table
        [
          string_of_int s;
          Printf.sprintf "%.0f" r.Rand_lower.q_mean;
          Printf.sprintf "%.2f" (r.Rand_lower.q_mean /. float_of_int n);
          Printf.sprintf "%.2f" r.Rand_lower.predicted_failure_floor;
          Printf.sprintf "%.2f" r.Rand_lower.failure_rate;
          Printf.sprintf "%.2f" r.Rand_lower.victim_hit_rate;
        ])
    rows;
  Table.print table;
  note
    "\nEach row: the victim spends q ~ n/s queries, and the mirror adversary wins with\n\
     probability ~ 1 - q/n — the Theorem 3.2 tradeoff, point by point.\n"

let run () =
  deterministic ();
  randomized ()
