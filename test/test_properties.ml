(* Property-based tests (QCheck): data-structure invariants and
   whole-protocol correctness under randomized instances, adversaries and
   schedules. *)

open Dr_core
module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment
module Fault = Dr_adversary.Fault
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan
module Prng = Dr_engine.Prng

let bits_gen =
  QCheck.Gen.(map (fun l -> List.map (fun b -> if b then '1' else '0') l |> List.to_seq |> String.of_seq)
                (list_size (int_range 1 120) bool))

let bits_arb = QCheck.make ~print:(fun s -> s) bits_gen

(* ------------------------------------------------------------------ *)
(* Bitarray                                                            *)
(* ------------------------------------------------------------------ *)

let prop_bits_roundtrip =
  QCheck.Test.make ~name:"bitarray: of_string/to_string roundtrip" ~count:200 bits_arb (fun s ->
      Bitarray.to_string (Bitarray.of_string s) = s)

let prop_bits_count_ones =
  QCheck.Test.make ~name:"bitarray: count_ones matches string" ~count:200 bits_arb (fun s ->
      Bitarray.count_ones (Bitarray.of_string s)
      = String.fold_left (fun acc c -> if c = '1' then acc + 1 else acc) 0 s)

let prop_bits_first_diff =
  QCheck.Test.make ~name:"bitarray: first_diff matches naive scan" ~count:200
    QCheck.(pair bits_arb (small_int))
    (fun (s, flips) ->
      let a = Bitarray.of_string s in
      let b = ref (Bitarray.copy a) in
      let len = String.length s in
      for f = 0 to flips mod 4 do
        b := Bitarray.flip !b ((f * 7) mod len)
      done;
      let naive =
        let rec scan i =
          if i >= len then None
          else if Bitarray.get a i <> Bitarray.get !b i then Some i
          else scan (i + 1)
        in
        scan 0
      in
      Bitarray.first_diff a !b = naive)

let prop_bits_append_sub =
  QCheck.Test.make ~name:"bitarray: sub inverts append" ~count:200
    QCheck.(pair bits_arb bits_arb)
    (fun (s1, s2) ->
      let a = Bitarray.of_string s1 and b = Bitarray.of_string s2 in
      let ab = Bitarray.append a b in
      Bitarray.equal (Bitarray.sub ab ~pos:0 ~len:(Bitarray.length a)) a
      && Bitarray.equal (Bitarray.sub ab ~pos:(Bitarray.length a) ~len:(Bitarray.length b)) b)

let prop_bits_flip_involution =
  QCheck.Test.make ~name:"bitarray: flip twice restores" ~count:200
    QCheck.(pair bits_arb small_nat)
    (fun (s, i) ->
      let a = Bitarray.of_string s in
      let i = i mod String.length s in
      Bitarray.equal (Bitarray.flip (Bitarray.flip a i) i) a)

(* The byte-level copy kernels against a bit-by-bit model on '0'/'1'
   strings. Each case tries every (pos mod 8, len mod 8) pair, [len = 0]
   included, once with the range inside the array and once on an array cut
   to end exactly on the range's last bit. A blit lands on random and on
   all-ones destinations, so a write outside [pos, pos+len) shows. Results
   are compared with [Bitarray.equal] against [of_string] of the model,
   which also requires the padding bits to be zero. *)
let prop_bits_kernels_match_model =
  let gen =
    QCheck.Gen.(
      let bits = string_size ~gen:(oneofl [ '0'; '1' ]) (int_range 62 130) in
      quad bits bits (int_range 0 3) (int_range 0 3))
  in
  let print (s, d, q, q') = Printf.sprintf "s=%s d=%s q=%d q'=%d" s d q q' in
  QCheck.Test.make ~name:"bitarray: blit/sub/append match a per-bit model" ~count:100
    (QCheck.make ~print gen)
    (fun (s, d, q, q') ->
      let same got want = Bitarray.equal got (Bitarray.of_string want) in
      let ok = ref true in
      for pm = 0 to 7 do
        for lm = 0 to 7 do
          let pos = (8 * q) + pm and len = (8 * q') + lm in
          let src = String.sub s 0 len in
          List.iter
            (fun arr ->
              ok := !ok && same (Bitarray.sub (Bitarray.of_string arr) ~pos ~len) (String.sub arr pos len))
            [ s; String.sub s 0 (pos + len) ];
          List.iter
            (fun dst ->
              let got = Bitarray.of_string dst in
              Bitarray.blit ~src:(Bitarray.of_string src) ~dst:got ~pos;
              let rest = String.length dst - pos - len in
              ok := !ok && same got (String.sub dst 0 pos ^ src ^ String.sub dst (pos + len) rest))
            [ d; String.make (String.length d) '1'; String.sub d 0 (pos + len) ];
          let a = String.sub s 0 ((8 * q) + pm) and b = String.sub d 0 len in
          ok := !ok && same (Bitarray.append (Bitarray.of_string a) (Bitarray.of_string b)) (a ^ b)
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Segment                                                             *)
(* ------------------------------------------------------------------ *)

let seg_params = QCheck.(pair (int_range 1 500) (int_range 1 64))

let prop_segment_tiles =
  QCheck.Test.make ~name:"segment: tiles [0,n) exactly" ~count:300 seg_params (fun (n, s) ->
      QCheck.assume (s <= n);
      let spec = Segment.make ~n ~s in
      let covered = Array.make n 0 in
      for j = 0 to s - 1 do
        let pos, len = Segment.bounds spec j in
        for i = pos to pos + len - 1 do
          covered.(i) <- covered.(i) + 1
        done
      done;
      Array.for_all (fun c -> c = 1) covered)

let prop_segment_of_bit =
  QCheck.Test.make ~name:"segment: of_bit is the inverse of bounds" ~count:300 seg_params
    (fun (n, s) ->
      QCheck.assume (s <= n);
      let spec = Segment.make ~n ~s in
      let ok = ref true in
      for i = 0 to n - 1 do
        let j = Segment.of_bit spec i in
        let pos, len = Segment.bounds spec j in
        if not (i >= pos && i < pos + len) then ok := false
      done;
      !ok)

let prop_segment_children_concat =
  QCheck.Test.make ~name:"segment: children concatenate to parent" ~count:100
    QCheck.(pair (int_range 4 400) (int_range 1 5))
    (fun (n, logs) ->
      let s = 1 lsl logs in
      QCheck.assume (s <= n);
      let fine = Segment.make ~n ~s in
      let coarse = Segment.halve fine in
      let x = Bitarray.random (Prng.create (Int64.of_int (n + s))) n in
      let ok = ref true in
      for j = 0 to coarse.Segment.s - 1 do
        let parts =
          List.map (Segment.extract fine x) (Segment.children ~coarse ~fine j)
        in
        let joined = List.fold_left Bitarray.append (Bitarray.create 0) parts in
        if not (Bitarray.equal joined (Segment.extract coarse x j)) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire: split/assemble roundtrip (any order)" ~count:200
    QCheck.(triple bits_arb (int_range 1 40) (int_range 0 1000))
    (fun (s, b, shuffle_seed) ->
      let bits = Bitarray.of_string s in
      let parts = Wire.split ~b bits in
      let arr = Array.of_list parts in
      Prng.shuffle (Prng.create (Int64.of_int shuffle_seed)) arr;
      let asm = Wire.Assembly.create ~len:(Bitarray.length bits) ~b in
      Array.iter (fun (part, payload) -> Wire.Assembly.add asm ~part payload) arr;
      Wire.Assembly.complete asm && Bitarray.equal (Wire.Assembly.get asm) bits)

(* ------------------------------------------------------------------ *)
(* Decision trees                                                      *)
(* ------------------------------------------------------------------ *)

let candidates_gen =
  (* Between 1 and 12 strings of equal length 1..24, plus the index of the
     "true" one. *)
  QCheck.Gen.(
    int_range 1 24 >>= fun len ->
    int_range 1 12 >>= fun count ->
    list_repeat count (list_repeat len bool) >>= fun strings ->
    int_range 0 (count - 1) >>= fun truth_idx -> return (len, strings, truth_idx))

let candidates_arb =
  QCheck.make
    ~print:(fun (len, strings, idx) ->
      Printf.sprintf "len=%d idx=%d [%s]" len idx
        (String.concat ";"
           (List.map (fun l -> String.concat "" (List.map (fun b -> if b then "1" else "0") l)) strings)))
    candidates_gen

let prop_tree_recovers_truth =
  QCheck.Test.make ~name:"tree: determine recovers the true candidate" ~count:300 candidates_arb
    (fun (_len, strings, truth_idx) ->
      let candidates = List.map (fun l -> Bitarray.init (List.length l) (List.nth l)) strings in
      let truth = List.nth candidates truth_idx in
      let tree = Decision_tree.build candidates in
      let got, spent = Decision_tree.determine ~query:(Bitarray.get truth) ~offset:0 tree in
      Bitarray.equal got truth
      && spent <= List.length (List.sort_uniq Bitarray.compare candidates) - 1)

let prop_tree_node_count =
  QCheck.Test.make ~name:"tree: internal nodes = distinct - 1" ~count:300 candidates_arb
    (fun (_len, strings, _idx) ->
      let candidates = List.map (fun l -> Bitarray.init (List.length l) (List.nth l)) strings in
      let distinct = List.length (List.sort_uniq Bitarray.compare candidates) in
      Decision_tree.internal_nodes (Decision_tree.build candidates) = distinct - 1)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

(* Interleaved pushes (times drawn from five values, so ties are the rule)
   and pops, then a full drain: every pop returns the pending entry that is
   least by (time, insertion order), exactly as a sorted list does. *)
let prop_heap_matches_reference =
  let module Heap = Dr_engine.Heap in
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 400)
        (frequency [ (3, map Option.some (int_range 0 4)); (1, return None) ]))
  in
  let print ops =
    String.concat " " (List.map (function Some t -> string_of_int t | None -> "pop") ops)
  in
  QCheck.Test.make ~name:"heap: pops in (time, insertion order)" ~count:300
    (QCheck.make ~print gen)
    (fun ops ->
      let h = Heap.create () in
      let pending = ref [] and next = ref 0 and ok = ref true in
      let pop_both () =
        match List.sort compare !pending with
        | [] -> ok := !ok && Heap.is_empty h
        | ((time, seq) as least) :: _ ->
          pending := List.filter (fun e -> e <> least) !pending;
          let cell = [| nan |] in
          let v = Heap.pop_min h ~time:cell in
          ok := !ok && cell.(0) = time && v = seq
      in
      List.iter
        (function
          | Some t ->
            Heap.push h ~time:[| float_of_int t |] !next;
            pending := (float_of_int t, !next) :: !pending;
            incr next
          | None -> pop_both ())
        ops;
      while !pending <> [] do
        pop_both ()
      done;
      !ok && Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Frequent                                                            *)
(* ------------------------------------------------------------------ *)

(* The store against a list of accepted reports: a report is accepted iff
   its peer has none in the list yet. Peers repeat (small ids) and reach
   far past the store's initial size (large ids); segments and strings
   repeat. *)
let prop_frequent_matches_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (triple (int_range 0 4)
           (frequency [ (4, int_range 0 9); (1, int_range 10 100_000) ])
           (oneofl [ "0"; "1"; "01"; "10"; "11" ])))
  in
  let print reports =
    String.concat " "
      (List.map (fun (seg, peer, s) -> Printf.sprintf "%d:%d:%s" seg peer s) reports)
  in
  QCheck.Test.make ~name:"frequent: matches a list-of-reports model" ~count:300
    (QCheck.make ~print gen)
    (fun reports ->
      let st = Frequent.create () in
      let accepted = ref [] and ok = ref true in
      List.iter
        (fun (seg, peer, s) ->
          let fresh = not (List.exists (fun (_, p, _) -> p = peer) !accepted) in
          if fresh then accepted := (seg, peer, s) :: !accepted;
          ok := !ok && Frequent.add st ~seg ~peer (Bitarray.of_string s) = fresh)
        reports;
      let accepted = !accepted in
      let model_strings seg =
        List.filter_map (fun (g, _, s) -> if g = seg then Some s else None) accepted
        |> List.sort_uniq (fun a b -> Bitarray.compare (Bitarray.of_string b) (Bitarray.of_string a))
        |> List.map (fun s ->
               (s, List.length (List.filter (fun (g, _, s') -> g = seg && s' = s) accepted)))
      in
      let store_strings seg =
        List.map (fun (b, c) -> (Bitarray.to_string b, c)) (Frequent.strings_for st ~seg)
      in
      let model_frequent seg rho =
        List.filter_map (fun (s, c) -> if c >= rho then Some s else None) (model_strings seg)
      in
      ok := !ok && Frequent.reporters st = List.length accepted;
      for seg = 0 to 6 do
        ok :=
          !ok
          && Frequent.total_for st ~seg = List.length (List.filter (fun (g, _, _) -> g = seg) accepted)
          && store_strings seg = model_strings seg;
        for rho = 1 to 3 do
          ok :=
            !ok
            && List.map Bitarray.to_string (Frequent.frequent st ~seg ~rho) = model_frequent seg rho
        done
      done;
      for segments = 0 to 6 do
        for rho = 1 to 2 do
          let model = List.for_all (fun seg -> model_frequent seg rho <> []) (List.init segments Fun.id) in
          ok := !ok && Frequent.covered st ~segments ~rho = model
        done
      done;
      !ok)

(* [has_frequent] against the candidate list it summarises, after every
   report of a random stream: peers re-report (rejected), strings repeat,
   and rho runs from 0 past the largest count. *)
let prop_has_frequent_matches_frequent =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (triple (int_range 0 4) (int_range 0 12) (oneofl [ "0"; "1"; "01"; "10"; "11" ])))
  in
  let print reports =
    String.concat " "
      (List.map (fun (seg, peer, s) -> Printf.sprintf "%d:%d:%s" seg peer s) reports)
  in
  QCheck.Test.make ~name:"frequent: has_frequent iff a candidate exists" ~count:300
    (QCheck.make ~print gen)
    (fun reports ->
      let st = Frequent.create () in
      let agree () =
        List.for_all
          (fun seg ->
            List.for_all
              (fun rho -> Frequent.has_frequent st ~seg ~rho = (Frequent.frequent st ~seg ~rho <> []))
              (List.init 6 Fun.id))
          (List.init 7 Fun.id)
      in
      agree ()
      && List.for_all
           (fun (seg, peer, s) ->
             ignore (Frequent.add st ~seg ~peer (Bitarray.of_string s));
             agree ())
           reports)

(* ------------------------------------------------------------------ *)
(* Simulator against a reference scheduler                             *)
(* ------------------------------------------------------------------ *)

module Sim = Dr_engine.Sim

type sim_action = Send of int * int | Broadcast of int | Recv

module Vmsg = struct
  type t = V of int

  let size_bits _ = 8
  let tag (V v) = string_of_int v
end

module Vsim = Sim.Make (Vmsg)

(* The simulator's scheduling rules written out over a list of pending
   events keyed by (time, seq): every peer starts at time 0, a send is
   scheduled at now + latency, [After_sends j] kills the peer attempting
   its (j+1)-th send, a delivery reaches only a live unfinished peer, and
   under an arbiter each step drains the new events in (time, seq) order
   into a pool the arbiter picks from, the clock counting steps. Returns
   the deliveries as (time, src, dst, value), what each peer received, and
   the number of events processed. *)
let reference_run ~k ~programs ~crash ~latency ~arbiter =
  let pending = ref [] and seq = ref 0 and pool = ref [] and clock = ref 0. in
  let push time ev =
    pending := (time, !seq, ev) :: !pending;
    incr seq
  in
  let alive = Array.make k true and finished = Array.make k false in
  let waiting = Array.make k false and rest = Array.copy programs in
  let mailbox = Array.make k [] and sent = Array.make k 0 and got = Array.make k [] in
  let log = ref [] in
  let send p dst v =
    match crash.(p) with
    | Sim.After_sends j when sent.(p) >= j ->
      alive.(p) <- false;
      false
    | _ ->
      sent.(p) <- sent.(p) + 1;
      push (!clock +. latency p dst) (`Deliver (p, dst, v));
      true
  in
  let rec run p =
    match rest.(p) with
    | [] -> finished.(p) <- true
    | Send (dst, v) :: r ->
      rest.(p) <- r;
      if send p dst v then run p
    | Broadcast v :: r ->
      rest.(p) <- r;
      let rec go dst =
        if dst >= k then run p else if dst = p then go (dst + 1) else if send p dst v then go (dst + 1)
      in
      go 0
    | Recv :: r -> (
      match mailbox.(p) with
      | m :: ms ->
        mailbox.(p) <- ms;
        got.(p) <- m :: got.(p);
        rest.(p) <- r;
        run p
      | [] -> waiting.(p) <- true)
  in
  let handle = function
    | `Start p -> if alive.(p) then run p
    | `Crash p ->
      alive.(p) <- false;
      waiting.(p) <- false
    | `Deliver (src, dst, v) ->
      if alive.(dst) && not finished.(dst) then begin
        log := (!clock, src, dst, v) :: !log;
        mailbox.(dst) <- mailbox.(dst) @ [ (src, v) ];
        if waiting.(dst) then begin
          waiting.(dst) <- false;
          run dst
        end
      end
  in
  Array.iteri
    (fun p _ ->
      push 0. (`Start p);
      match crash.(p) with Sim.At_time t -> push t (`Crash p) | _ -> ())
    programs;
  let next () =
    let sorted = List.sort compare !pending in
    match arbiter with
    | None -> (
      match sorted with
      | [] -> None
      | (time, _, ev) :: tl ->
        pending := tl;
        clock := time;
        Some ev)
    | Some choose ->
      pool := !pool @ List.map (fun (_, _, ev) -> ev) sorted;
      pending := [];
      let n = List.length !pool in
      if n = 0 then None
      else begin
        let i = choose n in
        let i = if i < 0 || i >= n then 0 else i in
        let ev = List.nth !pool i in
        pool := List.filteri (fun j _ -> j <> i) !pool;
        clock := !clock +. 1.;
        Some ev
      end
  in
  let events = ref 0 in
  let rec loop () =
    match next () with
    | None -> ()
    | Some ev ->
      incr events;
      handle ev;
      loop ()
  in
  loop ();
  (List.rev !log, Array.map List.rev got, !events)

let engine_run ~k ~programs ~crash ~latency ~arbiter =
  let trace = Dr_engine.Trace.create () in
  let got = Array.make k [] in
  let cfg =
    {
      (Sim.default_config ~k ~query_bit:(fun ~peer:_ _ -> false)) with
      latency = (fun ~src ~dst ~time:_ ~size_bits:_ -> latency src dst);
      crash = (fun i -> crash.(i));
      trace = Some trace;
      arbiter;
    }
  in
  let outcome =
    Vsim.run cfg (fun i ->
        List.iter
          (function
            | Send (dst, v) -> Vsim.send dst (Vmsg.V v)
            | Broadcast v -> Vsim.broadcast (Vmsg.V v)
            | Recv ->
              let src, Vmsg.V v = Vsim.receive () in
              got.(i) <- (src, v) :: got.(i))
          programs.(i))
  in
  let log =
    List.filter_map
      (function
        | Dr_engine.Trace.Delivered { time; src; dst; tag } -> Some (time, src, dst, int_of_string tag)
        | _ -> None)
      (Dr_engine.Trace.events trace)
  in
  (log, Array.map List.rev got, outcome.Sim.events)

(* Random small sims under both scheduling modes: the engine delivers the
   same messages, in the same order, at the same times, as the reference.
   Slots are recycled as soon as their event fires, so a slot that handed
   over a stale message or peer shows up as a wrong delivery. *)
let prop_sim_matches_reference_scheduler =
  let gen =
    QCheck.Gen.(
      int_range 2 5 >>= fun k ->
      let action =
        frequency
          [ (3, map (fun dst -> `Send dst) (int_range 0 (k - 1))); (1, return `Broadcast); (4, return `Recv) ]
      in
      let crash =
        frequency
          [
            (4, return Sim.Never);
            (1, map (fun t -> Sim.At_time t) (oneofl [ 0.; 0.5; 1.; 2.5 ]));
            (2, map (fun j -> Sim.After_sends j) (int_range 0 3));
          ]
      in
      quad
        (array_repeat k (list_size (int_range 0 6) action))
        (array_repeat k crash)
        (array_repeat (k * k) (int_range 0 2))
        (opt (list_size (int_range 0 40) (int_range 0 50))))
  in
  let print (programs, _, _, arbiter) =
    Printf.sprintf "k=%d actions=%d arbiter=%b" (Array.length programs)
      (Array.fold_left (fun n l -> n + List.length l) 0 programs)
      (arbiter <> None)
  in
  QCheck.Test.make ~name:"sim: deliveries match a reference scheduler" ~count:400
    (QCheck.make ~print gen)
    (fun (actions, crash, lat, choices) ->
      let k = Array.length actions in
      (* Value [10 p + j] is peer [p]'s [j]-th action: every message is distinct. *)
      let programs =
        Array.mapi
          (fun p l ->
            List.mapi
              (fun j a ->
                match a with
                | `Send dst -> Send (dst, (10 * p) + j)
                | `Broadcast -> Broadcast ((10 * p) + j)
                | `Recv -> Recv)
              l)
          actions
      in
      let latency src dst = float_of_int lat.((src * k) + dst) in
      (* A scripted arbiter; indices past the pool test the fallback to 0. *)
      let arbiter () =
        Option.map
          (fun choices ->
            let left = ref choices in
            fun count ->
              match !left with
              | [] -> count - 1
              | c :: cs ->
                left := cs;
                c mod (count + 1))
          choices
      in
      reference_run ~k ~programs ~crash ~latency ~arbiter:(arbiter ())
      = engine_run ~k ~programs ~crash ~latency ~arbiter:(arbiter ()))

(* ------------------------------------------------------------------ *)
(* Whole-protocol properties                                           *)
(* ------------------------------------------------------------------ *)

let crash_instance_gen =
  QCheck.Gen.(
    int_range 2 9 >>= fun k ->
    int_range 0 (k - 1) >>= fun t ->
    int_range (max 1 k) 80 >>= fun n ->
    int_range 0 5 >>= fun after_sends ->
    int_range 1 10_000 >>= fun seed -> return (k, t, n, after_sends, seed))

let crash_instance_arb =
  QCheck.make
    ~print:(fun (k, t, n, a, seed) -> Printf.sprintf "k=%d t=%d n=%d after=%d seed=%d" k t n a seed)
    crash_instance_gen

let prop_crash_general_always_correct =
  QCheck.Test.make ~name:"crash-general: correct on random instances" ~count:60 crash_instance_arb
    (fun (k, t, n, after_sends, seed) ->
      let seed = Int64.of_int seed in
      let inst = Problem.random_instance ~seed ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_latency (Latency.jittered (Prng.create seed))
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      (Exec.run_core ~opts (Crash_general.core ()) inst).Problem.ok)

let prop_crash_general_q_bound =
  QCheck.Test.make ~name:"crash-general: Q <= n/(gamma k) + n/k + slack" ~count:40
    crash_instance_arb (fun (k, t, n, after_sends, seed) ->
      let seed = Int64.of_int seed in
      let inst = Problem.random_instance ~seed ~k ~n ~t () in
      let opts =
        Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends) Exec.default
      in
      let r = Exec.run_core ~opts (Crash_general.core ()) inst in
      let gamma = float_of_int (k - t) /. float_of_int k in
      let bound =
        int_of_float (float_of_int n /. (gamma *. float_of_int k)) + (n / k) + (2 * k) + 2
      in
      r.Problem.ok && r.Problem.q_max <= bound)

(* Run a registry entry with the attack picked by index from the entry's own
   catalog. The attack vocabulary lives in one place (the registry), so a
   protocol that grows a new attack is exercised here without edits. *)
let registry_attack_run ~name ?segments ?rho ~opts ~attack_idx inst =
  let entry = Registry.find_exn name in
  let attacks = Registry.attacks entry in
  let attack = List.nth attacks (attack_idx mod List.length attacks) in
  entry.Registry.run ~opts ~attack ?segments ?rho inst

let committee_instance_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun t ->
    int_range ((2 * t) + 1) 9 >>= fun k ->
    int_range (max 1 k) 100 >>= fun n ->
    int_range 0 3 >>= fun attack ->
    int_range 1 10_000 >>= fun seed -> return (k, t, n, attack, seed))

let committee_instance_arb =
  QCheck.make
    ~print:(fun (k, t, n, a, seed) -> Printf.sprintf "k=%d t=%d n=%d attack=%d seed=%d" k t n a seed)
    committee_instance_gen

let prop_committee_always_correct =
  QCheck.Test.make ~name:"committee: correct under any catalog attack" ~count:60
    committee_instance_arb (fun (k, t, n, attack, seed) ->
      let seed = Int64.of_int seed in
      let inst = Problem.random_instance ~seed ~model:Problem.Byzantine ~k ~n ~t () in
      let opts = Exec.with_latency (Latency.jittered (Prng.create seed)) Exec.default in
      (registry_attack_run ~name:"byz-committee" ~opts ~attack_idx:attack inst).Problem.ok)

let prop_balanced_correct =
  QCheck.Test.make ~name:"balanced: correct on fault-free random instances" ~count:60
    QCheck.(pair (int_range 1 12) (int_range 1 200))
    (fun (k, n) ->
      let inst = Problem.random_instance ~seed:(Int64.of_int (k + n)) ~k ~n ~t:0 () in
      (Exec.run_core (Balanced.core ()) inst).Problem.ok)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let prop_summary_bounds =
  QCheck.Test.make ~name:"summary: median and mean within [min,max]" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun values ->
      let s = Dr_stats.Summary.of_floats values in
      s.Dr_stats.Summary.median >= s.Dr_stats.Summary.min
      && s.Dr_stats.Summary.median <= s.Dr_stats.Summary.max
      && s.Dr_stats.Summary.mean >= s.Dr_stats.Summary.min -. 1e-9
      && s.Dr_stats.Summary.mean <= s.Dr_stats.Summary.max +. 1e-9)

let prop_binomial_pmf_sums =
  QCheck.Test.make ~name:"chernoff: binomial pmf sums to 1" ~count:50
    QCheck.(pair (int_range 0 60) (float_range 0.01 0.99))
    (fun (trials, p) ->
      let total = ref 0. in
      for i = 0 to trials do
        total := !total +. Dr_stats.Chernoff.binomial_pmf ~trials ~p i
      done;
      abs_float (!total -. 1.) < 1e-6)

let prop_coverage_monotone_in_rho =
  QCheck.Test.make ~name:"chernoff: coverage failure monotone in rho" ~count:100
    QCheck.(triple (int_range 1 100) (int_range 1 10) (int_range 1 10))
    (fun (honest, segments, rho) ->
      Dr_stats.Chernoff.coverage_failure ~honest ~segments ~rho
      <= Dr_stats.Chernoff.coverage_failure ~honest ~segments ~rho:(rho + 1) +. 1e-12)


let prop_crash_single_always_correct =
  QCheck.Test.make ~name:"crash-single: correct on random instances" ~count:60
    QCheck.(quad (int_range 2 10) (int_range 0 1) (int_range 2 100) (int_range 0 10_000))
    (fun (k, t, n, seed) ->
      QCheck.assume (n >= k);
      let seed64 = Int64.of_int (seed + 1) in
      let inst = Problem.random_instance ~seed:seed64 ~k ~n ~t () in
      let after_sends = seed mod 5 in
      let opts =
        Exec.default
        |> Exec.with_latency (Latency.jittered (Prng.create seed64))
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      (Exec.run_core ~opts (Crash_single.core ()) inst).Problem.ok)

(* Heterogeneous WAN: each ordered link gets its own constant delay, drawn
   once. Deterministic protocols must not care. *)
let heterogeneous_links seed =
  let g = Prng.create seed in
  let table = Hashtbl.create 64 in
  fun ~src ~dst ~time:_ ~size_bits:_ ->
    match Hashtbl.find_opt table (src, dst) with
    | Some d -> d
    | None ->
      let d = 0.05 +. Prng.float g 0.95 in
      Hashtbl.add table (src, dst) d;
      d

let prop_crash_general_heterogeneous_wan =
  QCheck.Test.make ~name:"crash-general: correct on heterogeneous per-link delays" ~count:40
    crash_instance_arb (fun (k, t, n, after_sends, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_latency (heterogeneous_links seed64)
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      (Exec.run_core ~opts (Crash_general.core ()) inst).Problem.ok)

let prop_crash_general_link_serialized =
  QCheck.Test.make ~name:"crash-general: correct with B-limited serialized links" ~count:30
    crash_instance_arb (fun (k, t, n, after_sends, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_link_rate (float_of_int inst.Problem.b)
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      (Exec.run_core ~opts (Crash_general.core ()) inst).Problem.ok)

(* The 2-cycle protocol on parameters where coverage is essentially certain
   (rho = 1, many honest peers per segment): any catalog attack, any
   schedule. *)
let byz2_instance_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun t ->
    int_range (max 16 ((4 * t) + 4)) 40 >>= fun k ->
    int_range k 300 >>= fun n ->
    int_range 0 4 >>= fun attack ->
    int_range 1 10_000 >>= fun seed -> return (k, t, n, attack, seed))

let byz2_instance_arb =
  QCheck.make
    ~print:(fun (k, t, n, a, s) -> Printf.sprintf "k=%d t=%d n=%d attack=%d seed=%d" k t n a s)
    byz2_instance_gen

let prop_byz_2cycle_safe_params =
  QCheck.Test.make ~name:"byz-2cycle: correct under catalog attacks (safe parameters)" ~count:60
    byz2_instance_arb (fun (k, t, n, attack, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~model:Problem.Byzantine ~k ~n ~t () in
      let opts = Exec.with_latency (Latency.jittered (Prng.create seed64)) Exec.default in
      (* s = 2 with >= 10 honest reporters: coverage failure < 2^-8. *)
      (registry_attack_run ~name:"byz-2cycle" ~segments:2 ~rho:1 ~opts ~attack_idx:attack inst)
        .Problem.ok)

let prop_byz_multicycle_safe_params =
  QCheck.Test.make ~name:"byz-multicycle: correct under catalog attacks (safe parameters)"
    ~count:40 byz2_instance_arb (fun (k, t, n, attack, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~model:Problem.Byzantine ~k ~n ~t () in
      let opts = Exec.with_latency (Latency.jittered (Prng.create seed64)) Exec.default in
      (registry_attack_run ~name:"byz-multicycle" ~segments:2 ~rho:1 ~opts ~attack_idx:attack inst)
        .Problem.ok)

let prop_spec_bound_crash_general =
  QCheck.Test.make ~name:"spec: crash-general Q bound holds on random instances" ~count:50
    crash_instance_arb (fun (k, t, n, after_sends, seed) ->
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_latency (Latency.jittered (Prng.create seed64))
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends)
      in
      let r = Exec.run_core ~opts (Crash_general.core ()) inst in
      r.Problem.ok
      && Spec.within Spec.crash_general ~k ~n ~t ~b:inst.Problem.b ~measured:r.Problem.q_max)

let prop_spec_bound_committee =
  QCheck.Test.make ~name:"spec: committee Q bound holds on random instances" ~count:50
    committee_instance_arb (fun (k, t, n, attack, seed) ->
      ignore attack;
      let seed64 = Int64.of_int seed in
      let inst = Problem.random_instance ~seed:seed64 ~model:Problem.Byzantine ~k ~n ~t () in
      let opts = Exec.with_latency (Latency.jittered (Prng.create seed64)) Exec.default in
      let r = Exec.run_core ~opts (Committee.core ~attack:Committee.Equivocate ()) inst in
      r.Problem.ok
      && Spec.within Spec.committee ~k ~n ~t ~b:inst.Problem.b ~measured:r.Problem.q_max)

let prop_naive_unconditional =
  QCheck.Test.make ~name:"naive: correct whatever the fault pattern" ~count:40
    QCheck.(triple (int_range 1 10) (int_range 1 60) (int_range 0 10_000))
    (fun (k, n, seed) ->
      QCheck.assume (n >= k);
      let t = seed mod k in
      let inst =
        Problem.random_instance ~seed:(Int64.of_int (seed + 1)) ~model:Problem.Byzantine ~k ~n ~t ()
      in
      (Exec.run_core (Naive.core ()) inst).Problem.ok)

(* ------------------------------------------------------------------ *)
(* Registry matrix: every protocol x every catalog attack              *)
(* ------------------------------------------------------------------ *)

(* The smallest admitted instance with as many faults as the protocol's own
   [supports] precondition allows: faults make the attacks actually fire. For
   the randomized protocols we additionally keep k >= 4t + 4 (the same safe
   margin the QCheck generators use) so the w.h.p. coverage guarantee is
   essentially certain and the matrix stays deterministic-green. *)
let matrix_instance entry =
  let admitted =
    List.concat_map
      (fun (k, n) -> List.init k (fun t -> (k, n, t)))
      [ (2, 4); (3, 6); (4, 8); (5, 10); (9, 18); (20, 40) ]
    |> List.filter (fun (k, n, t) ->
           let inst =
             Problem.random_instance ~seed:7L ~model:entry.Registry.model ~k ~n ~t ()
           in
           Registry.admits entry inst = Ok ()
           && ((not entry.Registry.spec.Spec.randomized) || k >= (4 * t) + 4))
  in
  match List.sort (fun (_, _, t1) (_, _, t2) -> compare t2 t1) admitted with
  | [] -> Alcotest.failf "%s admits no small instance" (Registry.name entry)
  | (k, n, t) :: _ -> Problem.random_instance ~seed:7L ~model:entry.Registry.model ~k ~n ~t ()

let matrix_registry_attacks () =
  List.iter
    (fun entry ->
      let inst = matrix_instance entry in
      List.iter
        (fun attack ->
          let r = entry.Registry.run ~attack ~segments:2 ~rho:1 inst in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: honest peers output X (k=%d n=%d t=%d)"
               (Registry.name entry) attack inst.Problem.k (Problem.n inst) (Problem.t inst))
            true r.Problem.ok)
        (Registry.attacks entry))
    Registry.all

let suite =
  (* A fixed QCheck random state keeps the generated cases identical from
     run to run: the whole test suite stays deterministic (the randomized
     protocols' w.h.p. failure events would otherwise flake CI at ~1e-3). *)
  let rand = Random.State.make [| 0x5eed |] in
  List.map (fun t -> QCheck_alcotest.to_alcotest ~rand t)
    [
      prop_bits_roundtrip;
      prop_bits_count_ones;
      prop_bits_first_diff;
      prop_bits_append_sub;
      prop_bits_flip_involution;
      prop_bits_kernels_match_model;
      prop_segment_tiles;
      prop_segment_of_bit;
      prop_segment_children_concat;
      prop_wire_roundtrip;
      prop_tree_recovers_truth;
      prop_tree_node_count;
      prop_heap_matches_reference;
      prop_frequent_matches_model;
      prop_crash_general_always_correct;
      prop_crash_single_always_correct;
      prop_crash_general_heterogeneous_wan;
      prop_crash_general_link_serialized;
      prop_byz_2cycle_safe_params;
      prop_byz_multicycle_safe_params;
      prop_naive_unconditional;
      prop_spec_bound_crash_general;
      prop_spec_bound_committee;
      prop_crash_general_q_bound;
      prop_committee_always_correct;
      prop_balanced_correct;
      prop_summary_bounds;
      prop_binomial_pmf_sums;
      prop_coverage_monotone_in_rho;
    ]
  @ [
      Alcotest.test_case "registry matrix: every protocol x catalog attack" `Quick
        matrix_registry_attacks;
    ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest ~rand t)
      [ prop_has_frequent_matches_frequent; prop_sim_matches_reference_scheduler ]
