(* dr_lowerbound: run the executable lower-bound constructions of
   Theorems 3.1 (deterministic) and 3.2 (randomized). *)

open Cmdliner
open Dr_core
module Det_lower = Dr_lowerbound.Det_lower
module Rand_lower = Dr_lowerbound.Rand_lower

let peers = Arg.(value & opt int 8 & info [ "k"; "peers" ] ~doc:"Peers.")
let bits = Arg.(value & opt int 256 & info [ "n"; "bits" ] ~doc:"Input size in bits.")
let runs = Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Seeds for the randomized attack.")

let det k n =
  print_endline "=== Theorem 3.1: deterministic lower bound (mirror construction) ===";
  let run ?opts inst =
    Exec.run_core ?opts (Committee.core ~committee_size:6 ~threshold:2 ()) inst
  in
  let f_set = List.init ((k / 2) - 1) (fun i -> k - 1 - i) in
  match Det_lower.demonstrate ~run ~f_set ~b:72 ~k ~n () with
  | Error e -> Printf.printf "construction not applicable: %s\n" e
  | Ok ev ->
    Printf.printf "victim:            peer %d\n" ev.Det_lower.victim;
    Printf.printf "E1 (crash) ok:     %b, victim queried %d/%d bits\n"
      ev.Det_lower.e1.Problem.ok ev.Det_lower.e1_victim_queries n;
    Printf.printf "hidden bit:        %d (never queried by the victim)\n" ev.Det_lower.hidden_bit;
    Printf.printf "corrupted set:     [%s] (simulating the all-zeros world)\n"
      (String.concat "," (List.map string_of_int ev.Det_lower.corrupted));
    Printf.printf "victim fooled:     %b\n" ev.Det_lower.victim_fooled;
    Printf.printf "views identical:   %b (indistinguishability, machine-checked)\n"
      ev.Det_lower.views_identical

let rand k n runs =
  print_endline "\n=== Theorem 3.2: randomized lower bound (mirror adversary over seeds) ===";
  let run ?opts inst =
    Exec.run_core ?opts (Byz_2cycle.core ~attack:Byz_2cycle.Mirror ~segments:3 ~rho:1 ()) inst
  in
  let seeds = List.init runs (fun i -> Int64.of_int (i + 1)) in
  let r = Rand_lower.attack ~run ~f_count:4 ~k ~n ~seeds () in
  Printf.printf "runs:                  %d\n" r.Rand_lower.runs;
  Printf.printf "victim mean queries q: %.1f of n = %d\n" r.Rand_lower.q_mean r.Rand_lower.n;
  Printf.printf "predicted failure:     >= 1 - q/n = %.2f\n" r.Rand_lower.predicted_failure_floor;
  Printf.printf "measured failure rate: %.2f\n" r.Rand_lower.failure_rate;
  Printf.printf "hidden-bit hit rate:   %.2f (survival requires hitting it)\n"
    r.Rand_lower.victim_hit_rate

let run k n runs_count =
  det k n;
  rand (max k 21) n runs_count;
  `Ok ()

let cmd =
  Cmd.v
    (Cmd.info "dr_lowerbound" ~doc:"Executable lower bounds for Byzantine-majority Download")
    Term.(ret (const run $ peers $ bits $ runs))

let () = exit (Cmd.eval cmd)
