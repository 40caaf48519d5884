(* Retrieval beyond Download: computing functions of the remote array.

   The DR model's general problem is computing any f(X); the paper treats
   Download as the fundamental case because every other retrieval problem
   reduces to it. This example downloads one array once — under crashes and
   asynchrony — and evaluates a whole catalog of retrieval functions, plus a
   word-valued variant (the "extension to numbers" used by oracles).

   Run with:  dune exec examples/retrieval_functions.exe *)

open Dr_core
module Word = Dr_oracle.Word_download
module Fault = Dr_adversary.Fault

let () =
  let inst = Problem.random_instance ~seed:11L ~k:10 ~n:2048 ~t:3 () in
  let opts =
    Exec.default
    |> Exec.with_latency (Dr_adversary.Latency.jittered (Dr_engine.Prng.create 2L))
    |> Exec.with_crash
         (Dr_adversary.Crash_plan.staggered inst.Problem.fault ~first:0.5 ~gap:1.5)
  in
  Printf.printf "downloading %d bits with %d/%d peers crashing...\n\n" (Problem.n inst)
    (Problem.t inst) inst.Problem.k;

  let show (name, described, correct) =
    Printf.printf "  f = %-14s -> %-10s %s\n" name described (if correct then "(correct)" else "WRONG")
  in
  let eval : type a. a Retrieve.problem -> string * string * bool =
   fun problem ->
    let r = Retrieve.solve (Crash_general.core ()) ~opts inst problem in
    match r.Retrieve.value with
    | Some v -> (problem.Retrieve.name, problem.Retrieve.describe v, Retrieve.check problem inst r)
    | None -> (problem.Retrieve.name, "download failed", false)
  in
  let results =
    [
      eval Retrieve.parity;
      eval Retrieve.popcount;
      eval (Retrieve.find_first true);
      eval Retrieve.all_equal;
      eval Retrieve.longest_run;
      eval (Retrieve.slice ~pos:100 ~len:16);
    ]
  in
  List.iter show results;
  assert (List.for_all (fun (_, _, ok) -> ok) results);

  (* The word-valued extension: download 64 sensor readings as one array. *)
  let readings = Array.init 64 (fun i -> 20_000 + (137 * i mod 997)) in
  let fault = Fault.choose ~k:9 (Fault.Spread 2) in
  let winst = Word.make ~seed:13L ~width:16 ~k:9 ~values:readings fault in
  let wr = Word.run (Committee.core ()) winst in
  Printf.printf "\nword-valued download: 64 x 16-bit readings among 9 peers (2 Byzantine)\n";
  Printf.printf "  ok=%b, per-peer word queries=%d (naive would pay 64)\n" wr.Word.ok
    wr.Word.words_max;
  assert wr.Word.ok;
  match wr.Word.decoded with
  | Some d -> assert (d = readings)
  | None -> assert false
