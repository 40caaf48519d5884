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
  if inst.Problem.model <> Problem.Byzantine then Error "byz-2cycle targets Byzantine faults"
  else if inst.Problem.k - (2 * Problem.t inst) < 1 then
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
        let wanted_len seg = Segment.len spec seg in
        while not (!heard >= k - t && Frequent.covered store ~segments:s ~rho) do
          let src, { seg; bits } = T.receive () in
          if seg >= 0 && seg < s && Int.equal (Bitarray.length bits) (wanted_len seg) then
            if Frequent.add store ~seg ~peer:src bits then incr heard
        done;
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
      let rank =
        let rec go idx = function
          | [] -> 0
          | p :: _ when p = i -> idx
          | _ :: tl -> go (idx + 1) tl
        in
        go 0 inst.Problem.fault.Fault.faulty_ids
      in
      let prng = T.rng () in
      (match attack with
      | Silent -> ()
      | Near_miss ->
        (* Pick deterministically to pile onto low segments; flip a bit that
           varies per attacker so every forgery is a distinct tree leaf. *)
        let seg = i mod s in
        let bits = query_segment seg in
        let len = Bitarray.length bits in
        T.broadcast { seg; bits = Bitarray.flip bits (i mod len) }
      | Consistent_lie ->
        (* One agreed-on forged string for segment 0: becomes rho-frequent. *)
        let bits = query_segment 0 in
        let forged = Bitarray.init (Bitarray.length bits) (fun r -> not (Bitarray.get bits r)) in
        T.broadcast { seg = 0; bits = forged }
      | Equivocate ->
        let seg = Prng.int prng s in
        let len = Segment.len spec seg in
        for dst = 0 to k - 1 do
          if dst <> i then T.send dst { seg; bits = Bitarray.random prng len }
        done
      | Flood groups ->
        (* The faulty peers split into [groups] coalitions; each coalition
           agrees on a distinct forgery of segment 0, so each passes any
           threshold up to t/groups and the segment-0 decision tree gains
           [groups] leaves — the worst case of the query analysis. *)
        let groups = max 1 groups in
        let bits = query_segment 0 in
        let variant = rank mod groups in
        let len = Bitarray.length bits in
        T.broadcast { seg = 0; bits = Bitarray.flip bits (variant mod len) }
      | Adaptive plan ->
        (* Corrupt observed traffic: wait for whatever report the schedule
           delivers first, flip a rank-dependent bit of it, and echo per the
           plan. If nobody ever sends (everyone faulty and silent) the peer
           just blocks — faulty peers may do that. *)
        let _src, { seg; bits } = T.receive () in
        let forged =
          Bitarray.flip bits (Adaptive.corrupt_index ~rank ~len:(Bitarray.length bits))
        in
        (match plan with
        | Adaptive.Echo_corrupt -> T.broadcast { seg; bits = forged }
        | Adaptive.Split_brain ->
          List.iter
            (fun dst -> T.send dst { seg; bits = forged })
            (Adaptive.split_targets ~k ~me:i))
      | Mirror -> assert false (* dispatched to the honest path *));
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
