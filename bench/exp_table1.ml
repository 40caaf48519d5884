(* Experiment T1: regenerate the paper's Table 1 — the query-complexity
   landscape across fault models, resilience and synchrony — by measurement.
   Absolute constants differ from the asymptotic formulas; the shape (who
   wins, how Q scales with beta and n) is what the table checks, so each row
   carries the theory prediction next to the measured Q. *)

open Dr_core
open Exp_common

type row = {
  setting : string;
  protocol : string;
  model : string;
  beta : float;
  k : int;
  n : int;
  msg_b : int;
  q : int;
  theory : float;
  t_time : float;
  msgs : int;
  ok : bool;
}

let mk_row ~setting ~model ~theory inst (r : Problem.report) =
  {
    setting;
    protocol = r.Problem.protocol;
    model;
    beta = Problem.beta inst;
    k = inst.Problem.k;
    n = Problem.n inst;
    msg_b = inst.Problem.b;
    q = r.Problem.q_max;
    theory;
    t_time = r.Problem.time;
    msgs = r.Problem.msgs;
    ok = r.Problem.ok;
  }

let rows () =
  let acc = ref [] in
  let push r = acc := r :: !acc in
  (* --- Baselines --- *)
  let base = crash_inst ~seed:1L ~k:32 ~n:16384 ~t:0 () in
  push
    (mk_row ~setting:"async" ~model:"none" ~theory:(float_of_int 16384) base
       (Exec.run_core (Naive.core ()) base));
  push
    (mk_row ~setting:"async" ~model:"none"
       ~theory:(float_of_int (ideal_q base))
       base
       (Exec.run_core ~opts:(Exec.with_latency (jitter 2L) Exec.default) (Balanced.core ()) base));
  (* --- This paper, crash rows (Theorem 2.13): Q = O(n/(gamma k)). --- *)
  List.iter
    (fun t ->
      let k = 32 and n = 16384 in
      let inst = crash_inst ~seed:3L ~k ~n ~t () in
      let gamma = Problem.gamma inst in
      let theory = (float_of_int n /. (gamma *. float_of_int k)) +. float_of_int (n / k) in
      let r = Exec.run_core ~opts:(silent_opts inst 3L) (Crash_general.core ()) inst in
      push (mk_row ~setting:"async" ~model:"crash" ~theory inst r))
    [ 1; 8; 16; 24 ];
  (* --- This paper, deterministic Byzantine (Theorem 3.4): Q = (2t+1)n/k. --- *)
  List.iter
    (fun t ->
      let k = 32 and n = 16384 in
      let inst = byz_inst ~seed:4L ~k ~n ~t () in
      let theory = float_of_int (((2 * t) + 1) * n) /. float_of_int k in
      let r =
        Exec.run_core ~opts:(Exec.with_latency (jitter 4L) Exec.default)
          (Committee.core ~attack:Committee.Equivocate ()) inst
      in
      push (mk_row ~setting:"async" ~model:"byzantine" ~theory inst r))
    [ 2; 4; 8; 12 ];
  (* --- This paper, randomized Byzantine (Theorems 3.7 / 3.12). --- *)
  List.iter
    (fun (t, proto) ->
      let k = 128 and n = 32768 in
      let inst = byz_inst ~seed:5L ~k ~n ~t () in
      let s, _rho = Byz_2cycle.plan ~k ~n ~t in
      let theory = (float_of_int n /. float_of_int s) +. float_of_int k in
      let opts = Exec.with_latency (jitter 5L) Exec.default in
      let r =
        match proto with
        | `Two -> Exec.run_core ~opts (Byz_2cycle.core ~attack:Byz_2cycle.Near_miss ()) inst
        | `Multi ->
          Exec.run_core ~opts (Byz_multicycle.core ~attack:Byz_multicycle.Near_miss ()) inst
      in
      push (mk_row ~setting:"async" ~model:"byzantine" ~theory inst r))
    [ (8, `Two); (16, `Two); (32, `Two); (8, `Multi); (16, `Multi); (32, `Multi) ];
  (* --- Prior synchronous rows, for shape comparison: the same protocols
         under the lockstep unit-latency schedule. --- *)
  List.iter
    (fun t ->
      let k = 32 and n = 16384 in
      let inst = byz_inst ~seed:6L ~k ~n ~t () in
      let theory = float_of_int (((2 * t) + 1) * n) /. float_of_int k in
      let r = Exec.run_core (Committee.core ~attack:Committee.Equivocate ()) inst in
      push (mk_row ~setting:"sync" ~model:"byzantine" ~theory inst r))
    [ 4; 8 ];
  List.iter
    (fun t ->
      let k = 128 and n = 32768 in
      let inst = byz_inst ~seed:7L ~k ~n ~t () in
      let s, _ = Byz_2cycle.plan ~k ~n ~t in
      let theory = (float_of_int n /. float_of_int s) +. float_of_int k in
      let r = Exec.run_core (Byz_2cycle.core ~attack:Byz_2cycle.Near_miss ()) inst in
      push (mk_row ~setting:"sync" ~model:"byzantine" ~theory inst r))
    [ 8; 32 ];
  List.rev !acc

(* Prints the table; false when a row reads NO under <=spec or ok. *)
let run () =
  section "Table 1: query complexity across models (measured vs theory)";
  let table =
    Dr_stats.Table.create
      [ "setting"; "protocol"; "faults"; "beta"; "k"; "n"; "Q meas"; "Q theory"; "<=spec"; "Q/n"; "T"; "M"; "ok" ]
  in
  let failed = ref 0 in
  List.iter
    (fun r ->
      let spec_ok =
        match Registry.spec_of r.protocol with
        | Some b ->
          let t = int_of_float (Float.round (r.beta *. float_of_int r.k)) in
          if Spec.within b ~k:r.k ~n:r.n ~t ~b:r.msg_b ~measured:r.q then "yes" else "NO"
        | None -> "-"
      in
      if String.equal spec_ok "NO" || not r.ok then incr failed;
      Dr_stats.Table.add_row table
        [
          r.setting;
          r.protocol;
          r.model;
          Printf.sprintf "%.3f" r.beta;
          string_of_int r.k;
          string_of_int r.n;
          string_of_int r.q;
          Printf.sprintf "%.0f" r.theory;
          spec_ok;
          Printf.sprintf "%.3f" (float_of_int r.q /. float_of_int r.n);
          Printf.sprintf "%.1f" r.t_time;
          string_of_int r.msgs;
          (if r.ok then "yes" else "NO");
        ])
    (rows ());
  Dr_stats.Table.print table;
  note
    "\nShape checks: crash Q grows as 1/gamma; deterministic Byzantine Q grows as (2t+1);\n\
     randomized Byzantine Q ~ n/s + O(k) stays near-ideal while beta < 1/2.\n";
  if !failed > 0 then Printf.eprintf "table1: %d row(s) read NO under <=spec or ok\n" !failed;
  !failed = 0
