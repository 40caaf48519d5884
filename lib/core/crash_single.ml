module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment

type msg =
  | Share of { owner : int; part : int; bits : Bitarray.t }
      (** phase-1 stage-1: the sender's own assigned segment *)
  | Ask of { about : int }  (** stage-2 request: who is your missing peer's data *)
  | Bits_of of { about : int; part : int; bits : Bitarray.t }
      (** stage-2 response carrying the missing peer's segment *)
  | Me_neither of { about : int }
  | Reshare of { about : int; part : int; bits : Bitarray.t }
      (** phase-2 share of the reassigned slice of [about]'s segment *)
  | Full of { part : int; bits : Bitarray.t }  (** completion mode: whole array *)

module Msg = struct
  type t = msg

  let header = 64

  let size_bits = function
    | Share { bits; _ } | Bits_of { bits; _ } | Reshare { bits; _ } | Full { bits; _ } ->
      header + Bitarray.length bits
    | Ask _ | Me_neither _ -> header

  let tag = function
    | Share { owner; part; _ } -> Printf.sprintf "share(%d.%d)" owner part
    | Ask { about } -> Printf.sprintf "ask(%d)" about
    | Bits_of { about; part; _ } -> Printf.sprintf "bits_of(%d.%d)" about part
    | Me_neither { about } -> Printf.sprintf "me_neither(%d)" about
    | Reshare { about; part; _ } -> Printf.sprintf "reshare(%d.%d)" about part
    | Full { part; _ } -> Printf.sprintf "full(.%d)" part
end

let name = "crash-single"

let supports inst =
  match inst.Problem.model with
  | Problem.Byzantine -> Error "crash-single handles crash faults only"
  | Problem.Crash ->
    if Problem.t inst > 1 then Error "crash-single tolerates at most one crash"
    else if inst.Problem.k < 2 then Error "crash-single needs at least 2 peers"
    else Ok ()

(* Reassignment of the missing peer's segment among the k-1 remaining peers:
   the r-th bit of the segment goes to the peer of rank (r mod (k-1)) in
   ID order, skipping [u]. The rule depends only on (bit, u), so all peers
   that reassign compute the same map. *)
let reassigned_to ~k ~u ~seg_start b =
  let rank = (b - seg_start) mod (k - 1) in
  if rank < u then rank else rank + 1

let slice ~k ~u ~seg_start ~seg_len p =
  List.filter
    (fun b -> reassigned_to ~k ~u ~seg_start b = p)
    (List.init seg_len (fun r -> seg_start + r))

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run inst i =
    let n = Problem.n inst in
    let k = inst.Problem.k in
    let payload = max 1 (inst.Problem.b - Msg.header) in
    let s = min k n in
    let spec = Segment.make ~n ~s in
    let seg_of_peer i = if i < s then Some (Segment.bounds spec i) else None in
    let seg_len i = match seg_of_peer i with Some (_, len) -> len | None -> 0 in
    let y = Bitarray.create n in
    let know = Array.make n false in
    let unknown = ref n in
    let learn b v =
      if not know.(b) then begin
        know.(b) <- true;
        Bitarray.set y b v;
        decr unknown
      end
    in
    let learn_range ~pos bits =
      for r = 0 to Bitarray.length bits - 1 do
        learn (pos + r) (Bitarray.get bits r)
      done
    in
    (* --- Receive-side state --- *)
    let share_done = Array.make k false in
    share_done.(i) <- true;
    let heard_others = ref 0 in
    let share_asm = Array.make k None in
    let stage = ref 1 in
    let buffered_asks = ref [] in
    (* My stage-2 request state. *)
    let missing = ref (-1) in
    let resolved = ref false in
    let responders = Hashtbl.create 8 in
    let response_asm : (int, Wire.Assembly.t) Hashtbl.t = Hashtbl.create 8 in
    let reshare_asm : (int, Wire.Assembly.t) Hashtbl.t = Hashtbl.create 8 in
    let full_asm : (int, Wire.Assembly.t) Hashtbl.t = Hashtbl.create 8 in
    let feed table key ~len ~part bits ~on_complete =
      let asm =
        match Hashtbl.find_opt table key with
        | Some a -> a
        | None ->
          let a = Wire.Assembly.create ~len ~b:payload in
          Hashtbl.add table key a;
          a
      in
      if not (Wire.Assembly.complete asm) then begin
        Wire.Assembly.add asm ~part bits;
        if Wire.Assembly.complete asm then on_complete (Wire.Assembly.get asm)
      end
    in
    let answer_ask asker about =
      if about >= 0 && about < k then
        if share_done.(about) then begin
          match seg_of_peer about with
          | Some (pos, len) ->
            let bits = Bitarray.sub y ~pos ~len in
            List.iter
              (fun (part, bits) -> T.send asker (Bits_of { about; part; bits }))
              (Wire.split ~b:payload bits)
          | None -> T.send asker (Bits_of { about; part = 0; bits = Bitarray.create 0 })
        end
        else T.send asker (Me_neither { about })
    in
    let handle (src, m) =
      match m with
      | Share { owner; part; bits } ->
        if owner = src && owner >= 0 && owner < k && not share_done.(owner) then begin
          let len = seg_len owner in
          let complete payload_bits =
            share_done.(owner) <- true;
            incr heard_others;
            (match seg_of_peer owner with
            | Some (pos, _) -> learn_range ~pos payload_bits
            | None -> ());
            if owner = !missing then resolved := true
          in
          match share_asm.(owner) with
          | Some a ->
            if not (Wire.Assembly.complete a) then begin
              Wire.Assembly.add a ~part bits;
              if Wire.Assembly.complete a then complete (Wire.Assembly.get a)
            end
          | None ->
            let a = Wire.Assembly.create ~len ~b:payload in
            share_asm.(owner) <- Some a;
            Wire.Assembly.add a ~part bits;
            if Wire.Assembly.complete a then complete (Wire.Assembly.get a)
        end
      | Ask { about } ->
        if !stage >= 2 then answer_ask src about else buffered_asks := (src, about) :: !buffered_asks
      | Bits_of { about; part; bits } ->
        if about = !missing && not (Hashtbl.mem responders src) then begin
          (match seg_of_peer about with
          | Some (pos, len) ->
            feed response_asm src ~len ~part bits ~on_complete:(fun full ->
                Hashtbl.replace responders src ();
                learn_range ~pos full;
                resolved := true)
          | None ->
            Hashtbl.replace responders src ();
            resolved := true);
          ()
        end
      | Me_neither { about } ->
        if about = !missing then Hashtbl.replace responders src ()
      | Reshare { about; part; bits } ->
        (* All phase-2 re-sharers agree on the missing peer (Lemma 2.1); a
           completion-mode receiver may not know it, so recompute the slice
           from (about, src) rather than trusting local state. *)
        (match seg_of_peer about with
        | Some (pos, len) when src <> about ->
          let indices = slice ~k ~u:about ~seg_start:pos ~seg_len:len src in
          feed reshare_asm src ~len:(List.length indices) ~part bits ~on_complete:(fun vals ->
              List.iteri (fun r b -> learn b (Bitarray.get vals r)) indices)
        | Some _ | None -> ())
      | Full { part; bits } ->
        feed full_asm src ~len:n ~part bits ~on_complete:(fun full ->
            for b = 0 to n - 1 do
              learn b (Bitarray.get full b)
            done)
    in
    let wait_until cond =
      while not (cond ()) do
        handle (T.receive ())
      done
    in
    (* ---- Phase 1, stage 1: query own share, broadcast it. ---- *)
    (match seg_of_peer i with
    | Some (pos, len) ->
      for r = 0 to len - 1 do
        learn (pos + r) (T.query (pos + r))
      done;
      let mine = Bitarray.sub y ~pos ~len in
      List.iter
        (fun (part, bits) -> T.broadcast (Share { owner = i; part; bits }))
        (Wire.split ~b:payload mine)
    | None -> T.broadcast (Share { owner = i; part = 0; bits = Bitarray.create 0 }));
    (* ---- Stage 2: hear k-1 peers (incl. self). ---- *)
    wait_until (fun () -> !heard_others >= k - 2 || !unknown = 0);
    stage := 2;
    List.iter (fun (asker, about) -> answer_ask asker about) (List.rev !buffered_asks);
    buffered_asks := [];
    let completion = ref (!unknown = 0) in
    if not !completion then begin
      (match Array.to_list (Array.init k Fun.id) |> List.filter (fun p -> not share_done.(p)) with
      | [ u ] ->
        missing := u;
        T.broadcast (Ask { about = u });
        (* ---- Stage 3: collect k-1 responses (or be rescued). ---- *)
        let quorum = k - 2 in
        wait_until (fun () -> Hashtbl.length responders >= quorum || !resolved || !unknown = 0);
        if !resolved || !unknown = 0 then completion := true
      | [] -> completion := true
      | _ -> assert false (* heard >= k-2 others, so at most one is missing *))
    end;
    stage := 3;
    (* ---- Phase 2, stage 1. ---- *)
    if !completion then begin
      assert (!unknown = 0);
      List.iter
        (fun (part, bits) -> T.broadcast (Full { part; bits }))
        (Wire.split ~b:payload y)
    end
    else begin
      let u = !missing in
      (match seg_of_peer u with
      | Some (pos, len) ->
        let indices = Array.of_list (slice ~k ~u ~seg_start:pos ~seg_len:len i) in
        let vals =
          Bitarray.init (Array.length indices) (fun r ->
              let b = indices.(r) in
              if know.(b) then Bitarray.get y b
              else begin
                let v = T.query b in
                learn b v;
                v
              end)
        in
        List.iter
          (fun (part, bits) -> T.broadcast (Reshare { about = u; part; bits }))
          (Wire.split ~b:payload vals)
      | None ->
        (* The missing peer owned no segment: nothing to re-query. *)
        T.broadcast (Reshare { about = u; part = 0; bits = Bitarray.create 0 }))
    end;
    (* ---- Phase 2, stage 2: wait for the array to complete. ---- *)
    wait_until (fun () -> !unknown = 0);
    y
end

let core () : (module Transport.CORE) =
  (module struct
    let name = name
    let supports = supports

    module Msg = Msg
    module Process = Process
  end)
