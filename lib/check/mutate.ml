(* Mutation operators over corpus entries.

   A mutation produces a new scenario plus a script *prefix*: the campaign
   replays the prefix exactly (Explore.scripted_then_random) and lets the
   seeded Prng improvise the rest, so every mutant explores a schedule
   neighbourhood of a known-interesting run instead of a fresh random point.
   All randomness comes from the caller's Prng — same seed, same mutants. *)

module Prng = Dr_engine.Prng
module Crash_plan = Dr_adversary.Crash_plan

type op = Truncate | Splice | Point | Crash_shift | Attack_swap | Reseed

let all = [ Truncate; Splice; Point; Crash_shift; Attack_swap; Reseed ]

let take n l = List.filteri (fun i _ -> i < n) l

let drop n l = List.filteri (fun i _ -> i >= n) l

let truncate prng script =
  match script with [] -> [] | _ -> take (Prng.int prng (List.length script)) script

(* Prefix of the base up to a cut point, then the donor from its own cut
   point on — the classic crossover. Degenerates to truncation without a
   donor. *)
let splice prng script donor =
  match donor with
  | None | Some [] -> truncate prng script
  | Some d ->
    let cut_base = if script = [] then 0 else Prng.int prng (List.length script + 1) in
    let cut_donor = Prng.int prng (List.length d) in
    take cut_base script @ drop cut_donor d

(* Rewrite one choice to a fresh small value; the simulator clamps
   out-of-range choices, so any nonnegative value is legal. *)
let point prng script =
  match script with
  | [] -> [ Prng.int prng 4 ]
  | _ ->
    let at = Prng.int prng (List.length script) in
    List.mapi (fun i c -> if Int.equal i at then Prng.int prng 4 else c) script

let other prng ~eq pool current =
  match List.filter (fun x -> not (eq x current)) pool with
  | [] -> current
  | rest -> List.nth rest (Prng.int prng (List.length rest))

let mutate ~prng ~attacks ~crashes ~donor (e : Corpus.entry) =
  let s = e.Corpus.scenario in
  let op = List.nth all (Prng.int prng (List.length all)) in
  match op with
  | Truncate -> (s, truncate prng e.Corpus.script)
  | Splice -> (s, splice prng e.Corpus.script (Option.map (fun d -> d.Corpus.script) donor))
  | Point -> (s, point prng e.Corpus.script)
  | Crash_shift ->
    let crash =
      other prng
        ~eq:(fun a b -> String.equal (Crash_plan.descriptor_to_string a)
                          (Crash_plan.descriptor_to_string b))
        crashes s.Repro.crash
    in
    ({ s with Repro.crash }, e.Corpus.script)
  | Attack_swap ->
    let attack = other prng ~eq:String.equal attacks s.Repro.attack in
    ({ s with Repro.attack }, take (List.length e.Corpus.script / 2) e.Corpus.script)
  | Reseed ->
    let seed = Int64.of_int (1 + Prng.int prng 1_000_000) in
    ({ s with Repro.seed }, take (List.length e.Corpus.script / 2) e.Corpus.script)
