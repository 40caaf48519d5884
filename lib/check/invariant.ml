module Problem = Dr_core.Problem
module Spec = Dr_core.Spec
module Sim = Dr_engine.Sim

type t = Agreement | Termination | Spec_bound

let name = function
  | Agreement -> "agreement"
  | Termination -> "termination"
  | Spec_bound -> "spec-bound"

type violation = { invariant : t; event : int; detail : string }

let ints l = String.concat "," (List.map string_of_int l)

let check ?spec ~inst ~events (r : Problem.report) =
  let fail invariant detail = Some { invariant; event = events; detail } in
  let honest_blocked =
    match r.Problem.status with
    | Sim.Deadlock blocked -> List.filter (Problem.honest inst) blocked
    | Sim.Completed | Sim.Event_limit_reached -> []
  in
  if not (List.is_empty honest_blocked) then
    fail Termination
      (Printf.sprintf "deadlock: honest peers [%s] blocked forever" (ints honest_blocked))
  else if (match r.Problem.status with Sim.Event_limit_reached -> true | _ -> false) then
    fail Termination "event limit reached before the run quiesced"
  else if not r.Problem.ok then
    fail Agreement
      (Printf.sprintf "honest peers [%s] output something other than X" (ints r.Problem.wrong))
  else
    match spec with
    | None -> None
    | Some b ->
      let k = inst.Problem.k in
      let t = Problem.t inst in
      let n = Problem.n inst in
      if b.Spec.randomized || not (b.Spec.resilience ~k ~t) then None
      else begin
        let bound = b.Spec.q_bound ~k ~n ~t ~b:inst.Problem.b in
        if Fl.(float_of_int r.Problem.q_max <= bound) then None
        else
          fail Spec_bound
            (Printf.sprintf "measured Q = %d exceeds the %s bound %.1f" r.Problem.q_max
               b.Spec.theorem bound)
      end

let pp_violation ppf v =
  Format.fprintf ppf "%s violated at event %d: %s" (name v.invariant) v.event v.detail
