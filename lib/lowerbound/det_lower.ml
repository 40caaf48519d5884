module Bitarray = Dr_source.Bitarray
module Fault = Dr_adversary.Fault
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan
module Trace = Dr_engine.Trace
open Dr_core

type evidence = {
  victim : int;
  hidden_bit : int;
  corrupted : int list;
  e1 : Problem.report;
  e1_victim_queries : int;
  victim_fooled : bool;
  views_identical : bool;
}

type runner = ?opts:Exec.opts -> Problem.instance -> Problem.report

let demonstrate ~(run : runner) ?(victim = 0) ?f_set ?(seed = 1L) ?b ~k ~n () =
  let f_set =
    match f_set with
    | Some f -> f
    | None -> List.init (k / 2) (fun i -> k - 1 - i)
  in
  if List.exists (Int.equal victim) f_set then Error "victim must not be in F"
  else begin
    let zeros = Bitarray.create n in
    (* ---- Execution E1: zeros input, F silent-crashed. ---- *)
    let fault1 = Fault.choose ~k (Fault.Explicit f_set) in
    let inst1 = Problem.make ~seed ?b ~model:Problem.Crash ~k ~x:zeros fault1 in
    let trace1 = Trace.create () in
    let opts1 =
      Exec.default
      |> Exec.with_crash (Crash_plan.mid_broadcast fault1 ~after_sends:0)
      |> Exec.with_trace trace1
    in
    let e1 = run ~opts:opts1 inst1 in
    if List.exists (Int.equal victim) e1.Problem.wrong then
      Error "protocol failed E1 outright (victim has no correct output under crashes)"
    else begin
      let queried =
        List.sort_uniq Int.compare (List.map fst (Trace.query_view trace1 victim))
      in
      let e1_victim_queries = List.length queried in
      if e1_victim_queries >= n then
        Error "victim queried every bit: the protocol is naive, the bound is tight"
      else begin
        (* The first bit the victim never looked at. *)
        let hidden_bit =
          let rec scan i rest =
            match rest with
            | q :: tl when q = i -> scan (i + 1) tl
            | _ -> i
          in
          scan 0 queried
        in
        (* ---- Execution E2: bit flipped, C simulates the zero world. ---- *)
        let corrupted =
          List.filter
            (fun i -> i <> victim && not (List.exists (Int.equal i) f_set))
            (List.init k Fun.id)
        in
        let x2 = Bitarray.flip zeros hidden_bit in
        let fault2 = Fault.choose ~k (Fault.Explicit corrupted) in
        let inst2 = Problem.make ~seed ?b ~model:Problem.Byzantine ~k ~x:x2 fault2 in
        let stall = (e1.Problem.time +. 10.) *. 10. in
        let trace2 = Trace.create () in
        let in_f i = List.exists (Int.equal i) f_set in
        let is_corrupt i = List.exists (Int.equal i) corrupted in
        let opts2 =
          Exec.make_opts
            ~latency:(Latency.targeted ~slow:in_f ~delay:stall)
            ~trace:trace2
            ~query_override:(fun ~peer i ->
              if is_corrupt peer then false (* the simulated all-zeros source *)
              else Bitarray.get x2 i)
            ()
        in
        let e2 = run ~opts:opts2 inst2 in
        let victim_fooled = List.exists (Int.equal victim) e2.Problem.wrong in
        let view tr =
          (* The victim's deliveries, which with a deterministic protocol
             and schedule fully determine its behaviour. *)
          Trace.received_view tr victim
        in
        let delivery_equal (t1, s1, g1) (t2, s2, g2) =
          Float.equal t1 t2 && Int.equal s1 s2 && String.equal g1 g2
        in
        let views_identical = List.equal delivery_equal (view trace1) (view trace2) in
        Ok
          {
            victim;
            hidden_bit;
            corrupted;
            e1;
            e1_victim_queries;
            victim_fooled;
            views_identical;
          }
      end
    end
  end
