(* Ablations A-1..A-3 for the design choices called out in DESIGN.md.

   A-1 — the rho threshold of the randomized protocols: too low admits
         forged candidates into every tree (queries go up), too high starves
         the waiting condition (deadlock).
   A-2 — latency policies: Q is schedule-independent for the deterministic
         protocols; T tracks the adversary's delays.
   A-3 — the message bound B: with B-limited links, T scales as ~1/B. *)

open Dr_core
open Exp_common
module Table = Dr_stats.Table
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan

let rho_ablation () =
  section "A-1: rho threshold sweep (2-cycle, k=96, t=16, s=4)";
  let k = 96 and n = 8192 and t = 16 in
  let table = Table.create [ "rho"; "ok runs /10"; "deadlocks"; "mean Q (ok runs)" ] in
  List.iter
    (fun rho ->
      let ok = ref 0 and dead = ref 0 and qsum = ref 0 in
      List.iter
        (fun seed ->
          let inst = byz_inst ~seed ~k ~n ~t () in
          let opts = Exec.with_latency (jitter seed) Exec.default in
          let core = Byz_2cycle.core ~attack:(Byz_2cycle.Flood 16) ~segments:4 ~rho () in
          let r = Exec.run_core ~opts core inst in
          if r.Problem.ok then begin
            incr ok;
            qsum := !qsum + r.Problem.q_max
          end;
          match r.Problem.status with
          | Dr_engine.Sim.Deadlock _ -> incr dead
          | _ -> ())
        (List.init 10 (fun i -> Int64.of_int (i + 1)));
      Table.add_row table
        [
          string_of_int rho;
          string_of_int !ok;
          string_of_int !dead;
          (if !ok = 0 then "-" else string_of_int (!qsum / !ok));
        ])
    [ 1; 2; 4; 8; 12; 16; 24 ];
  Table.print table;
  note
    "\nToo low a threshold admits every one of the 16 distinct forged candidates into\n\
     the segment-0 tree (extra queries); the proofs' rho = h/(2s) = %d filters them\n\
     while staying safely below the starvation region where waits deadlock.\n"
    (max 1 ((k - (2 * t)) / (2 * 4)))

let latency_ablation () =
  section "A-2: schedule ablation (crash-general, k=32, n=16384, beta=1/4)";
  let k = 32 and n = 16384 and t = 8 in
  let table = Table.create [ "schedule"; "Q"; "T"; "M"; "ok" ] in
  List.iter
    (fun (label, mk_latency) ->
      let inst = crash_inst ~seed:41L ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_latency (mk_latency inst)
        |> Exec.with_crash (Crash_plan.staggered inst.Problem.fault ~first:0.5 ~gap:2.0)
      in
      let r = Exec.run_core ~opts (Crash_general.core ()) inst in
      Table.add_row table
        [
          label;
          string_of_int r.Problem.q_max;
          Printf.sprintf "%.1f" r.Problem.time;
          string_of_int r.Problem.msgs;
          (if r.Problem.ok then "yes" else "NO");
        ])
    [
      ("unit (synchronous-like)", fun _ -> Latency.unit_delay);
      ("uniform jitter (0,1]", fun _ -> jitter 41L);
      ( "targeted: honest half slowed 10x",
        fun _ -> Latency.targeted ~slow:(fun i -> i mod 2 = 0) ~delay:10. );
      ( "rushing: faulty fast",
        fun inst ->
          Latency.rushing ~fast:(Dr_adversary.Fault.is_faulty inst.Problem.fault) ~eps:0.01 );
    ];
  Table.print table;
  note "\nQ is schedule-invariant (determinism); only T follows the adversary.\n"

let message_bound_ablation () =
  section "A-3: message bound B vs time (crash-general, B-limited links)";
  let k = 16 and n = 8192 and t = 4 in
  let table = Table.create [ "B bits"; "T"; "max msg"; "M"; "ok" ] in
  List.iter
    (fun b ->
      let inst = crash_inst ~seed:43L ~b ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_link_rate (float_of_int b)
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:2)
      in
      let r = Exec.run_core ~opts (Crash_general.core ()) inst in
      Table.add_row table
        [
          string_of_int b;
          Printf.sprintf "%.1f" r.Problem.time;
          string_of_int r.Problem.max_msg_bits;
          string_of_int r.Problem.msgs;
          (if r.Problem.ok then "yes" else "NO");
        ])
    [ 256; 512; 1024; 2048; 4096 ];
  Table.print table;
  note "\nWith links transmitting B bits per unit, T shrinks as B grows (the paper's n/(kB) term).\n"

let exploration () =
  section "A-4: systematic schedule exploration (bounded DFS over delivery orders)";
  let module Explore = Dr_engine.Explore in
  let module Fault = Dr_adversary.Fault in
  let module Bitarray = Dr_source.Bitarray in
  let table =
    Table.create [ "protocol"; "k"; "n"; "crash"; "schedules"; "exhausted"; "failures"; "depth" ]
  in
  let row label run k n crash_label budget =
    let r = Explore.dfs ~budget ~run in
    Table.add_row table
      [
        label;
        string_of_int k;
        string_of_int n;
        crash_label;
        string_of_int r.Explore.schedules_run;
        (if r.Explore.exhausted then "yes" else "no (prefix)");
        string_of_int r.Explore.failures;
        string_of_int r.Explore.max_depth;
      ]
  in
  let balanced_inst = Problem.random_instance ~seed:5L ~k:2 ~n:2 ~t:0 () in
  row "balanced" (fun ~arbiter ->
      (Exec.run_core ~opts:(Exec.with_arbiter arbiter Exec.default)
         (Balanced.core ()) balanced_inst).Problem.ok)
    2 2 "none" 100_000;
  let single_inst =
    let x = Bitarray.random (Dr_engine.Prng.create 3L) 3 in
    Problem.make ~k:3 ~x (Fault.choose ~k:3 (Fault.Explicit [ 2 ]))
  in
  row "crash-single" (fun ~arbiter ->
      let opts =
        Exec.default
        |> Exec.with_crash (Crash_plan.mid_broadcast single_inst.Problem.fault ~after_sends:1)
        |> Exec.with_arbiter arbiter
      in
      (Exec.run_core ~opts (Crash_single.core ()) single_inst).Problem.ok)
    3 3 "after 1 send" 4_000;
  let general_inst =
    let x = Bitarray.random (Dr_engine.Prng.create 7L) 4 in
    Problem.make ~k:4 ~x (Fault.choose ~k:4 (Fault.Explicit [ 1 ]))
  in
  row "crash-general" (fun ~arbiter ->
      let opts =
        Exec.default
        |> Exec.with_crash (Crash_plan.mid_broadcast general_inst.Problem.fault ~after_sends:2)
        |> Exec.with_arbiter arbiter
      in
      (Exec.run_core ~opts (Crash_general.core ()) general_inst).Problem.ok)
    4 4 "after 2 sends" 4_000;
  Table.print table;
  note
    "\nEvery explored delivery order downloads correctly. The 2-peer space is covered\n\
     exhaustively; larger instances get a lexicographic DFS prefix of the schedule tree.\n"

let run () =
  rho_ablation ();
  latency_ablation ();
  message_bound_ablation ();
  exploration ()
