module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment
module Fault = Dr_adversary.Fault

type payload = { block : int; bits : Bitarray.t }

module Msg = struct
  type t = payload

  let size_bits { bits; _ } = 64 + Bitarray.length bits
  let tag { block; _ } = Printf.sprintf "block(%d)" block
end

let name = "byz-committee"

type attack = Honest_but_silent | Flip | Equivocate | Collude | Mirror

let committee ~k ~size j =
  let size = min size k in
  List.init size (fun i -> ((j * size) + i) mod k)

let rank ~k ~size j i = (((i - (j * size)) mod k) + k) mod k

module Strmap = Map.Make (struct
  type t = Bitarray.t

  let compare = Bitarray.compare
end)

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run ?(attack = Equivocate) ?committee_size ?threshold inst i =
    let n = Problem.n inst in
    let k = inst.Problem.k in
    let t = Problem.t inst in
    let c = min k (match committee_size with Some c -> max 1 c | None -> (2 * t) + 1) in
    let tau = match threshold with Some tau -> max 1 tau | None -> t + 1 in
    let payload_bits = max 1 (inst.Problem.b - 64) in
    let blocks = (n + payload_bits - 1) / payload_bits in
    let spec = Segment.make ~n ~s:(min blocks n) in
    let rank j i = rank ~k ~size:c j i in
    let member j i = rank j i < c in
    let query_block j =
      let pos, len = Segment.bounds spec j in
      T.query_range ~pos ~len
    in
    let honest i =
      let y = Bitarray.create n in
      let decided = Array.make spec.Segment.s false in
      let remaining = ref spec.Segment.s in
      let votes = Array.make spec.Segment.s Strmap.empty in
      let voted = Bytes.make (spec.Segment.s * c) '\000' in
      let decide j bits =
        if not decided.(j) then begin
          decided.(j) <- true;
          decr remaining;
          Bitarray.blit ~src:bits ~dst:y ~pos:(Segment.start spec j)
        end
      in
      (* Stage 1: query and broadcast every block whose committee I sit on;
         my own queries decide those blocks directly. *)
      for j = 0 to spec.Segment.s - 1 do
        if member j i then begin
          let bits = query_block j in
          T.broadcast { block = j; bits };
          decide j bits
        end
      done;
      (* Stage 2: decide the remaining blocks on tau matching committee
         values. *)
      T.await
        ~ready:(fun () -> !remaining <= 0)
        ~on:(fun src { block; bits } ->
          let r = rank block src in
          if
            block >= 0
            && block < spec.Segment.s
            && (not decided.(block))
            && r < c
            && Bytes.get_uint8 voted ((block * c) + r) = 0
            && Int.equal (Bitarray.length bits) (Segment.len spec block)
          then begin
            Bytes.set_uint8 voted ((block * c) + r) 1;
            let count =
              match Strmap.find_opt bits votes.(block) with Some c -> c + 1 | None -> 1
            in
            votes.(block) <- Strmap.add bits count votes.(block);
            if count >= tau then decide block bits
          end);
      y
    in
    let byz i =
      (match attack with
      | Honest_but_silent -> ()
      | (Flip | Equivocate | Collude) as attack ->
        (* Equivocate sends the true block to even peers and its complement
           to odd ones. Collude: every faulty member forges the same value,
           the true block with the first bit flipped, which breaks the
           protocol iff a committee holds >= tau faulty members, i.e. once
           beta >= 1/2. *)
        for j = 0 to spec.Segment.s - 1 do
          if member j i then begin
            let bits = query_block j in
            match attack with
            | Flip -> T.broadcast { block = j; bits = Bitarray.lognot bits }
            | Collude -> T.broadcast { block = j; bits = Bitarray.flip bits 0 }
            | _ ->
              let flipped = Bitarray.lognot bits in
              for dst = 0 to k - 1 do
                if dst <> i then T.send dst { block = j; bits = (if dst mod 2 = 0 then bits else flipped) }
              done
          end
        done
      | Mirror -> assert false (* dispatched to the honest path *));
      T.die ()
    in
    if Fault.is_faulty inst.Problem.fault i then
      match attack with Mirror -> honest i | _ -> byz i
    else honest i
end

let core ?attack ?committee_size ?threshold () : (module Transport.CORE) =
  (module struct
    let name = name

    module Msg = Msg

    module Process (T : Transport.S with type msg = Msg.t) = struct
      module P = Process (T)

      let run inst i = P.run ?attack ?committee_size ?threshold inst i
    end
  end)
