module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment
module Fault = Dr_adversary.Fault
module Adaptive = Dr_adversary.Adaptive
module Prng = Dr_engine.Prng

type payload = { seg : int; bits : Bitarray.t }

module Msg = struct
  type t = payload

  let size_bits { bits; _ } = 64 + Bitarray.length bits
  let tag { seg; _ } = Printf.sprintf "seg(%d)" seg
end

let name = "byz-2cycle"

let supports inst =
  match inst.Problem.model with
  | Problem.Crash -> Error "byz-2cycle targets Byzantine faults"
  | Problem.Byzantine ->
    if inst.Problem.k - (2 * Problem.t inst) < 1 then
      Error "byz-2cycle needs k - 2t >= 1 (beta < 1/2)"
    else Ok ()

type attack =
  | Silent
  | Near_miss
  | Consistent_lie
  | Equivocate
  | Flood of int
  | Adaptive of Adaptive.plan
  | Mirror

type send = int option * int * Bitarray.t

(* A peer's index among the faulty ids: what the coalition attacks key on. *)
let rank inst i =
  let rec go idx = function [] -> 0 | p :: tl -> if p = i then idx else go (idx + 1) tl in
  go 0 inst.Problem.fault.Fault.faulty_ids

let forge attack inst ~me ~prng ~query spec =
  let s = spec.Segment.s in
  let query_segment seg =
    let pos, len = Segment.bounds spec seg in
    query ~pos ~len
  in
  match attack with
  | Silent | Adaptive _ | Mirror -> []
  | Near_miss ->
    (* Pick deterministically to pile onto low segments; flip a bit that
       varies per attacker so every forgery is a distinct tree leaf. *)
    let seg = me mod s in
    let bits = query_segment seg in
    [ (None, seg, Bitarray.flip bits (me mod Bitarray.length bits)) ]
  | Consistent_lie ->
    (* One agreed-on forged string for segment 0: becomes rho-frequent. *)
    let bits = query_segment 0 in
    [ (None, 0, Bitarray.init (Bitarray.length bits) (fun r -> not (Bitarray.get bits r))) ]
  | Equivocate ->
    let seg = Prng.int prng s in
    let len = Segment.len spec seg in
    let sends = ref [] in
    for dst = 0 to inst.Problem.k - 1 do
      if dst <> me then sends := (Some dst, seg, Bitarray.random prng len) :: !sends
    done;
    List.rev !sends
  | Flood groups ->
    (* The faulty peers split into [groups] coalitions; each coalition
       agrees on a distinct forgery of segment 0, so each passes any
       threshold up to t/groups and the segment-0 decision tree gains
       [groups] leaves — the worst case of the query analysis. *)
    let bits = query_segment 0 in
    let variant = rank inst me mod max 1 groups in
    [ (None, 0, Bitarray.flip bits (variant mod Bitarray.length bits)) ]

let echo plan inst ~me ~seg bits =
  let forged =
    Bitarray.flip bits (Adaptive.corrupt_index ~rank:(rank inst me) ~len:(Bitarray.length bits))
  in
  match plan with
  | Adaptive.Echo_corrupt -> [ (None, seg, forged) ]
  | Adaptive.Split_brain ->
    List.map (fun dst -> (Some dst, seg, forged)) (Adaptive.split_targets ~k:inst.Problem.k ~me)

let plan ~k ~n ~t =
  let h = max 1 (k - (2 * t)) in
  let margin = 3. *. log (float_of_int (max k 2)) in
  let s_max = int_of_float (float_of_int h /. margin) in
  let s = max 1 (min s_max n) in
  let rho = max 1 (h / (2 * s)) in
  (s, rho)

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run ?(attack = Near_miss) ?segments ?rho inst i =
    let n = Problem.n inst in
    let k = inst.Problem.k in
    let t = Problem.t inst in
    let s_default, rho_default = plan ~k ~n ~t in
    let s = match segments with Some s -> max 1 (min s n) | None -> s_default in
    let rho = match rho with Some r -> max 1 r | None -> rho_default in
    let spec = Segment.make ~n ~s in
    let query_segment j =
      let pos, len = Segment.bounds spec j in
      T.query_range ~pos ~len
    in
    let honest i =
      let prng = T.rng () in
      (* ---- Cycle 1: sample, query, broadcast. ---- *)
      let pick = Prng.int prng s in
      let mine = query_segment pick in
      T.broadcast { seg = pick; bits = mine };
      if s = 1 then mine (* Case 3: the segment is the whole input. *)
      else begin
        (* ---- Cycle 2: gather reports, then resolve each segment. ---- *)
        let store = Frequent.create () in
        ignore (Frequent.add store ~seg:pick ~peer:i mine);
        let heard = ref 1 in
        let lens = Array.init s (Segment.len spec) in
        T.await
          ~ready:(fun () -> !heard >= k - t && Frequent.covered store ~segments:s ~rho)
          ~on:(fun src { seg; bits } ->
            if seg >= 0 && seg < s && Int.equal (Bitarray.length bits) lens.(seg) then
              if Frequent.add store ~seg ~peer:src bits then incr heard);
        let y = Bitarray.create n in
        Bitarray.blit ~src:mine ~dst:y ~pos:(Segment.start spec pick);
        for seg = 0 to s - 1 do
          if seg <> pick then begin
            let candidates = Frequent.frequent store ~seg ~rho in
            let tree = Decision_tree.build candidates in
            let value, _spent =
              Decision_tree.determine ~query:T.query ~offset:(Segment.start spec seg) tree
            in
            Bitarray.blit ~src:value ~dst:y ~pos:(Segment.start spec seg)
          end
        done;
        y
      end
    in
    let byz i =
      let sends =
        match attack with
        | Adaptive plan ->
          (* Corrupt observed traffic: echo whatever report the schedule
             delivers first. If nobody ever sends (everyone faulty and
             silent) the peer just blocks — faulty peers may do that. *)
          let _src, { seg; bits } = T.receive () in
          echo plan inst ~me:i ~seg bits
        | _ -> forge attack inst ~me:i ~prng:(T.rng ()) ~query:T.query_range spec
      in
      List.iter
        (fun (dst, seg, bits) ->
          match dst with
          | Some dst -> T.send dst { seg; bits }
          | None -> T.broadcast { seg; bits })
        sends;
      T.die ()
    in
    if Fault.is_faulty inst.Problem.fault i then
      match attack with Mirror -> honest i | _ -> byz i
    else honest i
end

let core ?attack ?segments ?rho () : (module Transport.CORE) =
  (module struct
    let name = name
    let supports = supports

    module Msg = Msg

    module Process (T : Transport.S with type msg = Msg.t) = struct
      module P = Process (T)

      let run inst i = P.run ?attack ?segments ?rho inst i
    end
  end)
