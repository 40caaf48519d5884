type t = int -> Dr_engine.Sim.crash_spec

let none _ = Dr_engine.Sim.Never

let staggered fault ~first ~gap peer =
  if not (Fault.is_faulty fault peer) then Dr_engine.Sim.Never
  else begin
    let rank = ref 0 in
    List.iteri (fun i p -> if p = peer then rank := i) fault.Fault.faulty_ids;
    Dr_engine.Sim.At_time (first +. (float_of_int !rank *. gap))
  end

let mid_broadcast fault ~after_sends peer =
  if Fault.is_faulty fault peer then Dr_engine.Sim.After_sends (max after_sends 0)
  else Dr_engine.Sim.Never

let after_queries fault j peer =
  if Fault.is_faulty fault peer then Dr_engine.Sim.After_queries (max j 0)
  else Dr_engine.Sim.Never

type descriptor = No_crash | Mid_broadcast of int | After_queries of int

let apply d fault =
  match d with
  | No_crash -> none
  | Mid_broadcast after_sends -> mid_broadcast fault ~after_sends
  | After_queries j -> after_queries fault j

let descriptor_to_string = function
  | No_crash -> "none"
  | Mid_broadcast j -> Printf.sprintf "mid-broadcast:%d" j
  | After_queries j -> Printf.sprintf "after-queries:%d" j

let descriptor_of_string s =
  match String.index_opt s ':' with
  | None -> if s = "none" then Some No_crash else None
  | Some i ->
    let kind = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    (match (kind, int_of_string_opt arg) with
    | "mid-broadcast", Some j when j >= 0 -> Some (Mid_broadcast j)
    | "after-queries", Some j when j >= 0 -> Some (After_queries j)
    | _ -> None)
