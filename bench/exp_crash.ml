(* Experiments E-2.3 and E-2.13: the crash-fault theorems, measured.

   E-2.3  — Algorithm 1 meets its exact bound Q <= ceil(n/k) + ceil(n/k/(k-1)).
   E-2.13 — Algorithm 2 meets Q = O(n/(gamma k)) for every beta < 1, scales
            with n, and the fast path removes the long-report wait from T. *)

open Dr_core
open Exp_common
module Table = Dr_stats.Table
module Fault = Dr_adversary.Fault
module Crash_plan = Dr_adversary.Crash_plan

let algorithm1 () =
  section "E-2.3: Algorithm 1 (single crash) — Q vs the exact bound";
  let table = Table.create [ "k"; "n"; "crash"; "Q"; "bound"; "T"; "ok" ] in
  List.iter
    (fun (k, n) ->
      List.iter
        (fun after_sends ->
          let inst = crash_inst ~seed:11L ~k ~n ~t:1 () in
          let opts =
            Exec.default
            |> Exec.with_latency (jitter 11L)
            |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
          in
          let r = Exec.run_core ~opts (Crash_single.core ()) inst in
          let bound = ((n + k - 1) / k) + ((((n + k - 1) / k) + k - 2) / (k - 1)) in
          Table.add_row table
            [
              string_of_int k;
              string_of_int n;
              Printf.sprintf "after %d sends" after_sends;
              string_of_int r.Problem.q_max;
              string_of_int bound;
              Printf.sprintf "%.1f" r.Problem.time;
              (if r.Problem.ok then "yes" else "NO");
            ])
        [ 0; 3 ])
    [ (8, 1024); (16, 4096); (32, 16384) ];
  Table.print table

let algorithm2_beta_sweep () =
  section "E-2.13: Algorithm 2 — Q vs beta (n = 16384, k = 32)";
  let k = 32 and n = 16384 in
  let table =
    Table.create [ "beta"; "t"; "Q"; "n/(gamma k) + n/k"; "Q/ideal"; "phases proxy T"; "M"; "ok" ]
  in
  List.iter
    (fun t ->
      let inst = crash_inst ~seed:13L ~k ~n ~t () in
      let r = Exec.run_core ~opts:(silent_opts inst 13L) (Crash_general.core ()) inst in
      let gamma = Problem.gamma inst in
      let theory = (float_of_int n /. (gamma *. float_of_int k)) +. float_of_int (n / k) in
      Table.add_row table
        [
          Printf.sprintf "%.3f" (Problem.beta inst);
          string_of_int t;
          string_of_int r.Problem.q_max;
          Printf.sprintf "%.0f" theory;
          fmt_ratio r.Problem.q_max (ideal_q inst);
          Printf.sprintf "%.1f" r.Problem.time;
          string_of_int r.Problem.msgs;
          (if r.Problem.ok then "yes" else "NO");
        ])
    [ 0; 4; 8; 16; 24; 28; 31 ];
  Table.print table;
  note "\nQ stays within a small factor of the ideal n/k until gamma collapses, as 1/gamma predicts.\n"

let algorithm2_n_sweep () =
  section "E-2.13: Algorithm 2 — Q scales linearly in n (k = 32, beta = 1/2)";
  let k = 32 and t = 16 in
  let table = Table.create [ "n"; "Q"; "Q*k*gamma/n"; "T"; "ok" ] in
  List.iter
    (fun n ->
      let inst = crash_inst ~seed:17L ~k ~n ~t () in
      let r = Exec.run_core ~opts:(silent_opts inst 17L) (Crash_general.core ()) inst in
      Table.add_row table
        [
          string_of_int n;
          string_of_int r.Problem.q_max;
          Printf.sprintf "%.2f" (float_of_int (r.Problem.q_max * k) *. 0.5 /. float_of_int n);
          Printf.sprintf "%.1f" r.Problem.time;
          (if r.Problem.ok then "yes" else "NO");
        ])
    [ 1024; 4096; 16384; 65536 ];
  Table.print table;
  note "\nThe normalized column is flat: Q = Theta(n/(gamma k)).\n"

let fast_path () =
  section "E-2.13: Theorem 2.13 fast path — T with B-limited links";
  let k = 8 in
  let fault = Fault.choose ~k (Fault.Explicit [ 0; 7 ]) in
  let x = Dr_source.Bitarray.random (Dr_engine.Prng.create 77L) 8192 in
  let inst = Problem.make ~k ~x fault in
  let latency =
    Dr_adversary.Latency.per_message (fun ~src ~dst ~size_bits:_ ->
        if src = 0 && dst = 1 then 3.0 else 0.5)
  in
  let crash i = if i = 7 then Dr_engine.Sim.After_sends 0 else Dr_engine.Sim.Never in
  let opts =
    Exec.default
    |> Exec.with_latency latency
    |> Exec.with_link_rate (float_of_int inst.Problem.b)
    |> Exec.with_crash crash
  in
  let table = Table.create [ "variant"; "T"; "Q"; "ok" ] in
  List.iter
    (fun (label, fast_path) ->
      let r = Exec.run_core ~opts (Crash_general.core ~fast_path ()) inst in
      Table.add_row table
        [
          label;
          Printf.sprintf "%.1f" r.Problem.time;
          string_of_int r.Problem.q_max;
          (if r.Problem.ok then "yes" else "NO");
        ])
    [ ("with fast path (Thm 2.13)", true); ("without (plain Algorithm 2)", false) ];
  Table.print table;
  note
    "\nThe fast path releases the stage-3 wait on the slow-but-alive peer's own\n\
     reply instead of third-party long reports about it.\n"

let run () =
  algorithm1 ();
  algorithm2_beta_sweep ();
  algorithm2_n_sweep ();
  fast_path ()
