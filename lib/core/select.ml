type preference = Deterministic | Randomized

(* The paper's order of preference per fault model; each protocol's regime
   is its [Spec.bounds.resilience], read through [Registry.admits]. *)
let for_instance ?(prefer = Randomized) inst =
  let minority = match prefer with Deterministic -> Committee.name | Randomized -> Byz_2cycle.name in
  let preferred, fallback =
    match inst.Problem.model with
    | Problem.Crash -> ([ Balanced.name; Crash_single.name ], Crash_general.name)
    | Problem.Byzantine -> ([ Balanced.name; minority ], Naive.name)
  in
  let admitted e = Result.is_ok (Registry.admits e inst) in
  match List.find_opt admitted (List.map Registry.find_exn preferred) with
  | Some e -> e
  | None -> Registry.find_exn fallback
