module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment
module Fault = Dr_adversary.Fault
module Adaptive = Dr_adversary.Adaptive
module Prng = Dr_engine.Prng

type payload = { cycle : int; seg : int; bits : Bitarray.t }

module Msg = struct
  type t = payload

  let size_bits { bits; _ } = 64 + Bitarray.length bits
  let tag { cycle; seg; _ } = Printf.sprintf "seg(c%d,%d)" cycle seg
end

let name = "byz-multicycle"

type attack = Byz_2cycle.attack =
  | Silent
  | Near_miss
  | Consistent_lie
  | Equivocate
  | Flood of int
  | Adaptive of Adaptive.plan
  | Mirror

let floor_pow2 v =
  let rec go p = if p * 2 > v then p else go (p * 2) in
  if v < 1 then 1 else go 1

let plan ~k ~n ~t =
  let s_linear, _rho = Byz_2cycle.plan ~k ~n ~t in
  let s1 = floor_pow2 s_linear in
  let rec log2 acc p = if p >= s1 then acc else log2 (acc + 1) (p * 2) in
  (s1, 1 + log2 0 1)

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run ?(attack = Near_miss) ?segments ?rho inst i =
    let n = Problem.n inst in
    let k = inst.Problem.k in
    let t = Problem.t inst in
    let h = max 1 (k - (2 * t)) in
    let s1 =
      match segments with
      | Some s -> floor_pow2 (max 1 (min s n))
      | None -> fst (plan ~k ~n ~t)
    in
    let specs =
      (* specs.(r-1) is the segmentation of cycle r; s halves each cycle. *)
      let rec build acc spec =
        if spec.Segment.s = 1 then List.rev (spec :: acc)
        else build (spec :: acc) (Segment.halve spec)
      in
      Array.of_list (build [] (Segment.make ~n ~s:s1))
    in
    let cycles = Array.length specs in
    (* rho doubles as segments halve (rho_r = h/(2 s_r)); an explicit [rho]
       overrides the cycle-1 value and keeps the same doubling. *)
    let rho_of r =
      let s_r = specs.(r - 1).Segment.s in
      match rho with
      | Some base -> max 1 (base * (s1 / s_r))
      | None -> max 1 (h / (2 * s_r))
    in
    (* lens.(r-1).(j) is segment j's length in cycle r. *)
    let lens = Array.map (fun spec -> Array.init spec.Segment.s (Segment.len spec)) specs in
    let honest i =
      let prng = T.rng () in
      (* stores.(c-1) holds cycle c's reports, and the cycle-r loop reads only
         stores.(r-2). So a report is stored only if its cycle is [oldest]
         (the one awaited now or next) or later, and not the last cycle's,
         which no loop awaits and only Byzantine peers send: reports of
         resolved cycles are dropped, and reports of future cycles are
         buffered in their own store as they arrive. *)
      let stores = Array.init (cycles - 1) (fun _ -> Frequent.create ()) in
      let heard = Array.make (cycles - 1) 0 in
      let oldest = ref 1 in
      let ingest src { cycle; seg; bits } =
        if cycle >= !oldest && cycle < cycles then begin
          let len = lens.(cycle - 1) in
          if seg >= 0 && seg < Array.length len && Int.equal (Bitarray.length bits) len.(seg) then
            if Frequent.add stores.(cycle - 1) ~seg ~peer:src bits then
              heard.(cycle - 1) <- heard.(cycle - 1) + 1
        end
      in
      let report cycle seg bits =
        ingest i { cycle; seg; bits };
        T.broadcast { cycle; seg; bits }
      in
      (* ---- Cycle 1: sample and query directly. ---- *)
      let pick1 = Prng.int prng specs.(0).Segment.s in
      let mine1 =
        let pos, len = Segment.bounds specs.(0) pick1 in
        T.query_range ~pos ~len
      in
      report 1 pick1 mine1;
      (* ---- Cycles 2..R: double, resolve children, re-broadcast; the last
         cycle's value is the whole input, output and never reported. ---- *)
      let rec run_cycle r =
        let spec = specs.(r - 1) in
        let fine = specs.(r - 2) in
        let rho = rho_of (r - 1) in
        oldest := r - 1;
        let pick = if spec.Segment.s = 1 then 0 else Prng.int prng spec.Segment.s in
        let children = Segment.children ~coarse:spec ~fine pick in
        let child_ready c = Frequent.has_frequent stores.(r - 2) ~seg:c ~rho in
        T.await
          ~ready:(fun () -> heard.(r - 2) >= k - t && List.for_all child_ready children)
          ~on:ingest;
        let resolve c =
          let tree = Decision_tree.build (Frequent.frequent stores.(r - 2) ~seg:c ~rho) in
          fst (Decision_tree.determine ~query:T.query ~offset:(Segment.start fine c) tree)
        in
        let value =
          List.fold_left (fun acc c -> Bitarray.append acc (resolve c)) (Bitarray.create 0) children
        in
        if r = cycles then value else (report r pick value; run_cycle (r + 1))
      in
      if cycles = 1 then mine1 else run_cycle 2
    in
    let byz i =
      let prng = T.rng () in
      (* The 2-cycle catalog once per cycle: a scripted attack forges on
         that cycle's segmentation; an adaptive one echoes whatever report
         the schedule delivers next, so the forged cycle and segment follow
         the observed traffic instead of a pre-run script. *)
      for r = 1 to cycles do
        let cycle, sends =
          match attack with
          | Adaptive plan ->
            let next = ref None in
            T.await ~ready:(fun () -> Option.is_some !next) ~on:(fun _src m -> next := Some m);
            let { cycle; seg; bits } = Option.get !next in
            (cycle, Byz_2cycle.echo plan inst ~me:i ~seg bits)
          | _ -> (r, Byz_2cycle.forge attack inst ~me:i ~prng ~query:T.query_range specs.(r - 1))
        in
        List.iter
          (fun (dst, seg, bits) ->
            match dst with
            | Some dst -> T.send dst { cycle; seg; bits }
            | None -> T.broadcast { cycle; seg; bits })
          sends
      done;
      T.die ()
    in
    if Fault.is_faulty inst.Problem.fault i then
      match attack with Mirror -> honest i | _ -> byz i
    else honest i
end

let core ?attack ?segments ?rho () : (module Transport.CORE) =
  (module struct
    let name = name

    module Msg = Msg

    module Process (T : Transport.S with type msg = Msg.t) = struct
      module P = Process (T)

      let run inst i = P.run ?attack ?segments ?rho inst i
    end
  end)
