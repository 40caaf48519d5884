type preference = Deterministic | Randomized

(* Every protocol reference goes through the registry: this file holds the
   regime case analysis only, not a protocol list. *)
let entry = Registry.find_exn

let for_instance ?(prefer = Randomized) inst =
  let t = Problem.t inst in
  match inst.Problem.model with
  | Problem.Crash ->
    if t = 0 then entry "balanced"
    else if t = 1 then entry "crash-single"
    else entry "crash-general"
  | Problem.Byzantine ->
    if t = 0 then entry "balanced"
    else if 2 * t < inst.Problem.k then begin
      match prefer with
      | Deterministic -> entry "byz-committee"
      | Randomized -> entry "byz-2cycle"
    end
    else entry "naive"
