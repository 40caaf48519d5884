module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment
module Prng = Dr_engine.Prng
module Int_table = Dr_engine.Int_table

type msg =
  | Request1 of { phase : int; idx : int array; part : int; parts : int }
      (** pull request: "send me the values of these bits" *)
  | Reply1 of { phase : int; idx : int array; vals : Bitarray.t; part : int; parts : int }
  | Request2 of { phase : int; missing : int array }
  | Reply2 of {
      phase : int;
      about : int;
      known : bool;  (** [false] = "me neither" ([idx] empty) *)
      idx : int array;
      vals : Bitarray.t;
      part : int;
      parts : int;
    }
  | Full of { part : int; bits : Bitarray.t }  (** termination flood: whole array *)

let ceil_log2 v =
  let rec go acc p = if p >= v then acc else go (acc + 1) (p * 2) in
  max 1 (go 0 1)

module Msg = struct
  type t = msg

  let header = 64

  (* Index entries are charged ⌈log2 n⌉ bits each; values 1 bit each. The
     size is data-dependent, so compute it from the payload itself (n is
     recovered conservatively from the largest index). *)
  let idx_cost idx =
    Array.fold_left (fun acc i -> acc + ceil_log2 (i + 2)) 0 idx

  let size_bits = function
    | Request1 { idx; _ } -> header + idx_cost idx
    | Reply1 { idx; vals; _ } -> header + idx_cost idx + Bitarray.length vals
    | Request2 { missing; _ } -> header + (16 * Array.length missing)
    | Reply2 { idx; vals; _ } -> header + idx_cost idx + Bitarray.length vals
    | Full { bits; _ } -> header + Bitarray.length bits

  let tag = function
    | Request1 { phase; part; _ } -> Printf.sprintf "req1(p%d.%d)" phase part
    | Reply1 { phase; part; _ } -> Printf.sprintf "rep1(p%d.%d)" phase part
    | Request2 { phase; _ } -> Printf.sprintf "req2(p%d)" phase
    | Reply2 { phase; about; known; part; _ } ->
      Printf.sprintf "rep2(p%d,u%d,%s.%d)" phase about (if known then "bits" else "none") part
    | Full { part; _ } -> Printf.sprintf "full(.%d)" part
end

let name = "crash-general"

let phases_upper_bound ~k ~t =
  if t = 0 then 2
  else begin
    let beta = float_of_int t /. float_of_int k in
    let r = ceil (log (float_of_int (max k 2)) /. log (1. /. beta)) in
    int_of_float r + 2
  end

(* The common re-assignment rule: all peers that still miss bit [b] after
   phase [p] hand it to the same pseudo-randomly chosen peer. A pure function
   of (b, p), so it needs no coordination (Claim 1). *)
let reassign_rule ~k ~phase b =
  let h = Prng.create (Int64.add (Int64.mul (Int64.of_int b) 0x100000001b3L) (Int64.of_int phase)) in
  Prng.int h k

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run ?(fast_path = true) ?monitor inst me =
    let n = Problem.n inst in
    let k = inst.Problem.k in
    let t = Problem.t inst in
    let quorum_others = max 0 (k - t - 1) in
    let threshold = (n + k - 1) / k in
    let max_phase = phases_upper_bound ~k ~t in
    let bpi = ceil_log2 (n + 2) in
    let cap = max 1 ((inst.Problem.b - Msg.header) / (bpi + 1)) in
    let full_payload = max 1 (inst.Problem.b - Msg.header) in
    let spec = Segment.make ~n ~s:(min k n) in
    let y = Bitarray.create n in
    let know = Array.make n false in
    let unknown = ref n in
    let got_full = ref false in
    let my_phase = ref 1 and my_stage = ref 1 in
    let learn b v =
      if not know.(b) then begin
        know.(b) <- true;
        Bitarray.set y b v;
        decr unknown
      end
    in
    let learn_pairs idx vals =
      Array.iteri (fun r b -> if b >= 0 && b < n then learn b (Bitarray.get vals r)) idx
    in
    (* Current assignment of each bit. *)
    let assign = Array.init n (fun b -> Segment.of_bit spec b) in
    (* --- per-phase bookkeeping --- *)
    (* A (phase, peer) key is the one int [pair phase peer], a
       (phase, responder, about) key [triple phase responder about]. *)
    let pair phase peer =
      assert (phase >= 1 && phase <= max_phase && peer >= 0 && peer < k);
      (phase * k) + peer
    in
    let triple phase q u =
      assert (u >= 0 && u < k);
      (pair phase q * k) + u
    in
    let heard : unit Int_table.t = Int_table.create 64 in
    (* (phase, peer) in S_p *)
    let heard_count : int Int_table.t = Int_table.create 8 in
    let reply1_recv : int Int_table.t = Int_table.create 64 in
    (* (phase, peer) -> parts received so far *)
    let requests_sent : int array Int_table.t = Int_table.create 64 in
    (* (phase, peer) -> indices I pulled from them (for Reply2 content) *)
    let resp2_have : int Int_table.t = Int_table.create 64 in
    (* (phase, responder, about) -> parts received *)
    let resp2_answered : unit Int_table.t = Int_table.create 64 in
    (* (phase, responder, about): the responder's full answer arrived *)
    let full_asm : Wire.Assembly.t Int_table.t = Int_table.create 8 in
    (* Requests, newest first, answered by the fiber once my own progress
       allows; [due] is set when one arrives answerable. *)
    let pending : (int * msg) list ref = ref [] in
    let due = ref false in
    let bump table key =
      let v = match Int_table.find_opt table key with Some v -> v | None -> 0 in
      Int_table.replace table key (v + 1);
      v + 1
    in
    let get0 table key = match Int_table.find_opt table key with Some v -> v | None -> 0 in
    let in_heard phase peer = Int_table.mem heard (pair phase peer) in
    let mark_heard phase peer =
      if not (in_heard phase peer) then begin
        Int_table.replace heard (pair phase peer) ();
        ignore (bump heard_count phase)
      end
    in
    (* Send the indices [idx_all] in parts under the message bound. *)
    let send_batched dst idx_all mk =
      let total = Array.length idx_all in
      let parts = max 1 ((total + cap - 1) / cap) in
      for part = 0 to parts - 1 do
        let lo = part * cap in
        let len = max 0 (min cap (total - lo)) in
        T.send dst (mk ~idx:(Array.sub idx_all lo len) ~part ~parts)
      done
    in
    (* A request for phase p is answerable once my own stage 1 (Request1)
       or stage 2 (Request2) of p is done: the paper's "q waits until it is
       at least in stage 2 of phase p". *)
    let answerable = function
      | Request1 { phase; _ } -> phase < !my_phase || (phase = !my_phase && !my_stage >= 2)
      | Request2 { phase; _ } -> phase < !my_phase || (phase = !my_phase && !my_stage >= 3)
      | Reply1 _ | Reply2 _ | Full _ -> false
    in
    let answer (src, m) =
      match m with
      | Request1 { phase; idx; part; parts } ->
        (* Reply with my values for exactly the requested indices. By
           Claim 1 I know all of them once I finished stage 1 of [phase];
           crash-model peers never lie, so a miss is a protocol bug. *)
        let vals =
          Bitarray.init (Array.length idx) (fun r ->
              let b = idx.(r) in
              if not (b >= 0 && b < n && know.(b)) then
                failwith
                  (Printf.sprintf
                     "req1 miss: me=%d src=%d req_phase=%d my_phase=%d my_stage=%d b=%d assign=%d"
                     me src phase !my_phase !my_stage b assign.(b));
              Bitarray.get y b)
        in
        T.send src (Reply1 { phase; idx; vals; part; parts })
      | Request2 { phase; missing } ->
        (* Short "me neither" answers go out first so that on a serialized
           link they are not stuck behind a long bit-carrying answer. *)
        Array.iter
          (fun u ->
            if not (in_heard phase u) then
              T.send src
                (Reply2
                   { phase; about = u; known = false; idx = [||]; vals = Bitarray.create 0;
                     part = 0; parts = 1 }))
          missing;
        Array.iter
          (fun u ->
            if in_heard phase u then
              send_batched src
                (match Int_table.find_opt requests_sent (pair phase u) with
                | Some a -> a
                | None -> [||])
                (fun ~idx ~part ~parts ->
                  let vals = Bitarray.init (Array.length idx) (fun r -> Bitarray.get y idx.(r)) in
                  Reply2 { phase; about = u; known = true; idx; vals; part; parts }))
          missing
      | Reply1 _ | Reply2 _ | Full _ -> assert false
    in
    let drain_pending () =
      let ready, later = List.partition (fun (_, m) -> answerable m) !pending in
      pending := later;
      due := false;
      List.iter answer (List.rev ready)
    in
    let handle src m =
      match m with
      | Request1 _ | Request2 _ ->
        pending := (src, m) :: !pending;
        if answerable m then due := true
      | Reply1 { phase; idx; vals; parts; _ } ->
        learn_pairs idx vals;
        let got = bump reply1_recv (pair phase src) in
        if got >= parts then mark_heard phase src
      | Reply2 { phase; about; known; idx; vals; parts; _ } ->
        if known then learn_pairs idx vals;
        let got = bump resp2_have (triple phase src about) in
        if got = parts then Int_table.replace resp2_answered (triple phase src about) ()
      | Full { part; bits } -> (
        match Wire.Assembly.feed full_asm src ~len:n ~b:full_payload ~part bits with
        | Some full ->
          got_full := true;
          for b = 0 to n - 1 do
            learn b (Bitarray.get full b)
          done
        | None -> ())
    in
    (* Wait until [cond], answering each request the moment it is
       answerable. *)
    let rec wait_until cond =
      T.await ~ready:(fun () -> !due || cond ()) ~on:handle;
      if !due then begin
        drain_pending ();
        wait_until cond
      end
    in
    let finish () =
      for b = 0 to n - 1 do
        if not know.(b) then learn b (T.query b)
      done;
      List.iter (fun (part, bits) -> T.broadcast (Full { part; bits })) (Wire.split ~b:full_payload y);
      y
    in
    let rec phase_loop () =
      let p = !my_phase in
      (match monitor with
      | Some f -> f ~peer:me ~phase:p ~assign:(Array.copy assign) ~know:(Array.copy know)
      | None -> ());
      if !unknown <= threshold || p > max_phase then finish ()
      else begin
        (* ---- Stage 1: query my assigned unknown bits; pull the rest. ---- *)
        my_stage := 1;
        for b = 0 to n - 1 do
          if (not know.(b)) && assign.(b) = me then learn b (T.query b)
        done;
        (* Bucket my unknown bits by assignee in one pass over the array. *)
        let wants = Array.make k [] in
        for b = n - 1 downto 0 do
          if not know.(b) then wants.(assign.(b)) <- b :: wants.(assign.(b))
        done;
        for q = 0 to k - 1 do
          if q <> me then begin
            let idx = Array.of_list wants.(q) in
            Int_table.replace requests_sent (pair p q) idx;
            send_batched q idx (fun ~idx ~part ~parts -> Request1 { phase = p; idx; part; parts })
          end
        done;
        my_stage := 2;
        drain_pending ();
        (* ---- Stage 2: hear from k-t peers (incl. self). ---- *)
        wait_until (fun () -> get0 heard_count p >= quorum_others || !unknown = 0);
        if !unknown = 0 then begin
          my_phase := p + 1;
          finish ()
        end
        else begin
          let missing =
            Array.of_seq
              (Seq.filter (fun q -> q <> me && not (in_heard p q)) (Seq.init k Fun.id))
          in
          if Array.length missing = 0 then begin
            (* Heard everyone: nothing to ask. *)
            my_stage := 3;
            drain_pending ();
            next_phase p
          end
          else begin
            T.broadcast (Request2 { phase = p; missing });
            my_stage := 3;
            drain_pending ();
            (* ---- Stage 3: collect k-t answers (or be rescued). ----
               A responder counts as complete once it has answered about
               every missing peer; with the Theorem 2.13 fast path, a
               missing peer whose own slow reply has arrived no longer
               needs anybody's answer. *)
            let enough_responders () =
              let needed u = not (fast_path && in_heard p u) in
              let complete q =
                Array.for_all
                  (fun u -> (not (needed u)) || Int_table.mem resp2_answered (triple p q u))
                  missing
              in
              let count = ref 0 in
              for q = 0 to k - 1 do
                if q <> me && complete q then incr count
              done;
              !count >= quorum_others
            in
            wait_until (fun () ->
                enough_responders ()
                || (fast_path && !unknown = 0)
                || (!got_full && !unknown = 0));
            (* ---- Re-assign what is still unknown. ---- *)
            if !unknown = 0 then begin
              my_phase := p + 1;
              finish ()
            end
            else begin
              for b = 0 to n - 1 do
                if not know.(b) then assign.(b) <- reassign_rule ~k ~phase:p b
              done;
              next_phase p
            end
          end
        end
      end
    (* Every request of phase p or earlier was answered by stage 3 of p,
       so entering phase p+1 leaves nothing to answer. *)
    and next_phase p =
      my_phase := p + 1;
      my_stage := 1;
      phase_loop ()
    in
    phase_loop ()
end

let core ?(fast_path = true) ?monitor () : (module Transport.CORE) =
  (module struct
    let name = if fast_path then name else name ^ "-nofp"

    module Msg = Msg

    module Process (T : Transport.S with type msg = Msg.t) = struct
      module P = Process (T)

      let run inst me = P.run ~fast_path ?monitor inst me
    end
  end)
