module Bitarray = Dr_source.Bitarray
module Fault = Dr_adversary.Fault
module Latency = Dr_adversary.Latency
module Trace = Dr_engine.Trace
module Prng = Dr_engine.Prng
open Dr_core

type result = {
  runs : int;
  failures : int;
  failure_rate : float;
  victim_hit_rate : float;
  q_mean : float;
  predicted_failure_floor : float;
  n : int;
}

type runner = ?opts:Exec.opts -> Problem.instance -> Problem.report

let attack ~(run : runner) ?(victim = 0) ?f_count ?(hidden = `Uniform) ~k ~n ~seeds () =
  let f_count = match f_count with Some f -> f | None -> (k - 1) / 2 in
  let f_set = List.init f_count (fun i -> k - 1 - i) in
  if List.exists (Int.equal victim) f_set then
    invalid_arg "Rand_lower.attack: victim inside F";
  let corrupted =
    List.filter
      (fun i -> i <> victim && not (List.exists (Int.equal i) f_set))
      (List.init k Fun.id)
  in
  let fault = Fault.choose ~k (Fault.Explicit corrupted) in
  let in_f i = List.exists (Int.equal i) f_set in
  let is_corrupt i = List.exists (Int.equal i) corrupted in
  let failures = ref 0 and hits = ref 0 and q_sum = ref 0 in
  let runs = List.length seeds in
  List.iter
    (fun seed ->
      let adv = Prng.create (Int64.lognot seed) in
      let hidden_bit = match hidden with `Uniform -> Prng.int adv n | `Fixed i -> i in
      let x = Bitarray.flip (Bitarray.create n) hidden_bit in
      let inst = Problem.make ~seed ~model:Problem.Byzantine ~k ~x fault in
      let trace = Trace.create () in
      let opts =
        Exec.make_opts
          ~latency:(Latency.targeted ~slow:in_f ~delay:1e6)
          ~trace
          ~query_override:(fun ~peer i ->
            if is_corrupt peer then false else Bitarray.get x i)
          ()
      in
      let report = run ~opts inst in
      if List.exists (Int.equal victim) report.Problem.wrong then incr failures;
      let queried = List.map fst (Trace.query_view trace victim) in
      if List.exists (Int.equal hidden_bit) queried then incr hits;
      q_sum := !q_sum + List.length (List.sort_uniq Int.compare queried))
    seeds;
  let q_mean = if runs = 0 then 0. else float_of_int !q_sum /. float_of_int runs in
  {
    runs;
    failures = !failures;
    failure_rate = (if runs = 0 then 0. else float_of_int !failures /. float_of_int runs);
    victim_hit_rate = (if runs = 0 then 0. else float_of_int !hits /. float_of_int runs);
    q_mean;
    predicted_failure_floor = 1. -. (q_mean /. float_of_int n);
    n;
  }
