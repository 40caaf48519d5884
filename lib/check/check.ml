module Sim = Dr_engine.Sim
module Explore = Dr_engine.Explore
module Prng = Dr_engine.Prng
module Problem = Dr_core.Problem
module Exec = Dr_core.Exec
module Registry = Dr_core.Registry
module Spec = Dr_core.Spec
module Crash_plan = Dr_adversary.Crash_plan

type target = {
  name : string;
  attacks : string list;
  model : Problem.fault_model;
  spec : Spec.bounds option;
  pool : (int * int * int) list;
  run :
    ?observer:(Sim.obs -> unit) ->
    attack:string ->
    crash:Crash_plan.t ->
    arbiter:Sim.arbiter ->
    Problem.instance ->
    Problem.report;
}

let default_pool entry =
  List.concat_map
    (fun (k, n) -> List.init k (fun t -> (k, n, t)))
    [ (2, 4); (3, 5); (4, 8); (5, 10) ]
  |> List.filter (fun (k, _, t) -> entry.Registry.spec.Spec.resilience ~k ~t)

let of_registry ?pool entry =
  let model = entry.Registry.model in
  let pool = match pool with Some p -> p | None -> default_pool entry in
  {
    name = Registry.name entry;
    attacks = Registry.attacks entry;
    model;
    spec = Some entry.Registry.spec;
    pool;
    run =
      (fun ?observer ~attack ~crash ~arbiter inst ->
        let opts = Exec.make_opts ?observer ~crash ~arbiter () in
        entry.Registry.run ~opts ~attack inst);
  }

let resolve ?(targets = []) name =
  match List.find_opt (fun t -> String.equal t.name name) targets with
  | Some t -> Some t
  | None -> Option.map of_registry (Registry.find name)

(* ------------------------------------------------------------------ *)
(* Running one scenario                                               *)
(* ------------------------------------------------------------------ *)

type checked = {
  report : Problem.report;
  script : int list;
  violation : Invariant.violation option;
}

let instance_of target (s : Repro.scenario) =
  Problem.random_instance ~seed:s.Repro.seed ~model:target.model ~k:s.Repro.k ~n:s.Repro.n
    ~t:s.Repro.t ()

let run_scenario ?observer target (s : Repro.scenario) ~arbiter =
  let inst = instance_of target s in
  let recording, recorded = Explore.record arbiter in
  let crash = Crash_plan.apply s.Repro.crash inst.Problem.fault in
  let report = target.run ?observer ~attack:s.Repro.attack ~crash ~arbiter:recording inst in
  let script = recorded () in
  let violation =
    Invariant.check ?spec:target.spec ~inst ~events:(List.length script) report
  in
  { report; script; violation }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

let same_violation inv (c : checked) =
  match c.violation with
  | Some v -> String.equal (Invariant.name v.Invariant.invariant) inv
  | None -> false

let shrink target (s : Repro.scenario) (v : Invariant.violation) ~script =
  let inv = Invariant.name v.Invariant.invariant in
  let fails_with crash script =
    same_violation inv
      (run_scenario target { s with Repro.crash } ~arbiter:(Explore.scripted script))
  in
  (* Fault plan first: no crash at all, else a lower parameter. *)
  let crash =
    let lower rebuild j =
      let j' = ref j in
      while !j' > 0 && fails_with (rebuild (!j' - 1)) script do
        decr j'
      done;
      rebuild !j'
    in
    match s.Repro.crash with
    | Crash_plan.No_crash -> Crash_plan.No_crash
    | _ when fails_with Crash_plan.No_crash script -> Crash_plan.No_crash
    | Crash_plan.Mid_broadcast j -> lower (fun j -> Crash_plan.Mid_broadcast j) j
    | Crash_plan.After_queries j -> lower (fun j -> Crash_plan.After_queries j) j
  in
  let script = Shrink.minimize ~fails:(fails_with crash) script in
  let s = { s with Repro.crash } in
  match run_scenario target s ~arbiter:(Explore.scripted script) with
  | { violation = Some v; _ } ->
    {
      Repro.scenario = s;
      script;
      invariant = Invariant.name v.Invariant.invariant;
      event = v.Invariant.event;
      detail = v.Invariant.detail;
    }
  | { violation = None; _ } ->
    (* Shrink validated every step against the predicate; an unreproducible
       result here means the target is nondeterministic. *)
    failwith (Printf.sprintf "Check.shrink: %s is not deterministic under replay" target.name)

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)
(* ------------------------------------------------------------------ *)

type replay_result =
  | Reproduced of Invariant.violation
  | Diverged of string
  | Vanished

let replay ?targets (r : Repro.t) =
  match resolve ?targets r.Repro.scenario.Repro.protocol with
  | None -> Diverged (Printf.sprintf "unknown protocol %S" r.Repro.scenario.Repro.protocol)
  | Some target ->
    (match run_scenario target r.Repro.scenario ~arbiter:(Explore.scripted r.Repro.script) with
    | { violation = None; _ } -> Vanished
    | { violation = Some v; _ } ->
      let name = Invariant.name v.Invariant.invariant in
      if not (String.equal name r.Repro.invariant) then
        Diverged
          (Printf.sprintf "expected %s to fail, got %s: %s" r.Repro.invariant name
             v.Invariant.detail)
      else if v.Invariant.event <> r.Repro.event then
        Diverged
          (Printf.sprintf "%s fails at event %d, recorded at %d" name v.Invariant.event
             r.Repro.event)
      else Reproduced v)

(* ------------------------------------------------------------------ *)
(* The coverage-guided campaign                                        *)
(* ------------------------------------------------------------------ *)

let crash_descriptors =
  [
    Crash_plan.No_crash;
    Crash_plan.Mid_broadcast 0;
    Crash_plan.Mid_broadcast 1;
    Crash_plan.Mid_broadcast 2;
    Crash_plan.After_queries 0;
    Crash_plan.After_queries 1;
  ]

type campaign = {
  target_name : string;
  budget : int;
  seed : int;
  executed : int;
  seed_runs : int;
  mutated_runs : int;
  new_coverage_runs : int;
  coverage : Coverage.t;
  corpus : Corpus.t;
  failures : Repro.t list;
}

(* Scenario equality at each field's own type. *)
let same_scenario (a : Repro.scenario) (b : Repro.scenario) =
  String.equal a.protocol b.protocol
  && String.equal a.attack b.attack
  && a.k = b.k && a.n = b.n && a.t = b.t
  && Int64.equal a.seed b.seed
  && String.equal
       (Crash_plan.descriptor_to_string a.crash)
       (Crash_plan.descriptor_to_string b.crash)

let campaign ?(max_failures = 5) ?bucket ~budget ~seed target =
  if List.is_empty target.pool then
    failwith (Printf.sprintf "Check.campaign: %s has no admissible small instance" target.name);
  let coverage = Coverage.create () in
  let corpus = Corpus.create () in
  let failures = ref [] in
  let seen = ref [] in
  let prng = Prng.create (Int64.of_int (seed + 0xc0de)) in
  let executed = ref 0 in
  let new_coverage_runs = ref 0 in
  (* One observed execution: probe the engine, fold the run's distinct
     signatures into the map, admit coverage-fresh scripts to the corpus,
     shrink a violation not seen before on this (invariant, scenario) while
     fewer than [max_failures] are collected. *)
  let observe scenario ~arbiter =
    let p = Explore.probe ?bucket () in
    let c = run_scenario ~observer:p.Explore.observer target scenario ~arbiter in
    incr executed;
    let fresh = Coverage.note coverage (p.Explore.hits ()) in
    if fresh > 0 then incr new_coverage_runs;
    if fresh > 0 || Corpus.size corpus = 0 then
      Corpus.add corpus { Corpus.scenario; script = c.script; new_signatures = fresh };
    match c.violation with
    | None -> ()
    | Some v ->
      let name = Invariant.name v.Invariant.invariant in
      let known (n, s) = String.equal n name && same_scenario s scenario in
      if List.length !failures < max_failures && not (List.exists known !seen) then begin
        seen := (name, scenario) :: !seen;
        failures := shrink target scenario v ~script:c.script :: !failures
      end
  in
  let fresh_seed () = Int64.of_int (1 + Prng.int prng 1_000_000) in
  let fresh_arbiter () = Explore.random (Prng.create (fresh_seed ())) in
  (* Phase 1: seed the corpus round-robin over pool × attack × crash, pool
     varying fastest (a mixed-radix counter with the pool as the least
     significant digit): instance shapes — the dominant coverage axis — are
     all visited before the attack catalog starts cycling, so even a small
     seed budget populates the corpus across every (k, n, t). *)
  let np = List.length target.pool in
  let na = List.length target.attacks in
  let nc = List.length crash_descriptors in
  let seed_runs = max 1 (budget / 4) in
  for i = 0 to seed_runs - 1 do
    let k, n, t = List.nth target.pool (i mod np) in
    let attack = List.nth target.attacks (i / np mod na) in
    let crash = List.nth crash_descriptors (i / (np * na) mod nc) in
    let scenario =
      { Repro.protocol = target.name; attack; k; n; t; seed = fresh_seed (); crash }
    in
    observe scenario ~arbiter:(fresh_arbiter ())
  done;
  (* Phase 2: mutate coverage-interesting entries for the rest of the
     budget — replay the mutated prefix exactly, improvise the suffix. *)
  let mutated_runs = max 0 (budget - seed_runs) in
  for _ = 1 to mutated_runs do
    match Corpus.pick prng corpus with
    | None -> ()
    | Some base ->
      let donor = Corpus.pick prng corpus in
      let scenario, prefix =
        Mutate.mutate ~prng ~attacks:target.attacks ~crashes:crash_descriptors ~donor base
      in
      observe scenario
        ~arbiter:(Explore.scripted_then_random prefix (Prng.create (fresh_seed ())))
  done;
  {
    target_name = target.name;
    budget;
    seed;
    executed = !executed;
    seed_runs;
    mutated_runs;
    new_coverage_runs = !new_coverage_runs;
    coverage;
    corpus;
    failures = List.rev !failures;
  }

let campaign_stats_json c =
  let module Json = Dr_stats.Json in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"dr-campaign/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"target\": \"%s\",\n" (Json.escape c.target_name));
  Buffer.add_string b
    (Printf.sprintf "  \"budget\": %d, \"seed\": %d, \"executed\": %d,\n" c.budget c.seed
       c.executed);
  Buffer.add_string b
    (Printf.sprintf "  \"seed_runs\": %d, \"mutated_runs\": %d, \"new_coverage_runs\": %d,\n"
       c.seed_runs c.mutated_runs c.new_coverage_runs);
  Buffer.add_string b
    (Printf.sprintf "  \"distinct_signatures\": %d, \"coverage_hits\": %d,\n"
       (Coverage.distinct c.coverage) (Coverage.hits c.coverage));
  Buffer.add_string b (Printf.sprintf "  \"corpus_size\": %d,\n" (Corpus.size c.corpus));
  Buffer.add_string b "  \"violations\": [";
  List.iteri
    (fun i (r : Repro.t) ->
      if i > 0 then Buffer.add_string b ",";
      let s = r.Repro.scenario in
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"invariant\": \"%s\", \"attack\": \"%s\", \"k\": %d, \"n\": %d, \"t\": \
            %d, \"crash\": \"%s\", \"event\": %d }"
           (Json.escape r.Repro.invariant) (Json.escape s.Repro.attack) s.Repro.k s.Repro.n
           s.Repro.t
           (Crash_plan.descriptor_to_string s.Repro.crash)
           r.Repro.event))
    c.failures;
  if not (List.is_empty c.failures) then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

let pp_campaign ppf c =
  Format.fprintf ppf
    "%s: %d runs (%d seed + %d mutated), %d signatures (%d runs hit new coverage), corpus %d, \
     %d violation%s"
    c.target_name c.executed c.seed_runs c.mutated_runs
    (Coverage.distinct c.coverage)
    c.new_coverage_runs (Corpus.size c.corpus) (List.length c.failures)
    (if List.length c.failures = 1 then "" else "s");
  List.iter (fun r -> Format.fprintf ppf "@.  %a" Repro.pp r) c.failures
