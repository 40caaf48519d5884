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

(* A reference array built bit by bit with [create] and [set], which never
   touch the padding: [Bitarray.equal] against it also checks that the
   padding is zero. *)
let bits_by_set len f =
  let a = Bitarray.create len in
  for r = 0 to len - 1 do
    Bitarray.set a r (f r)
  done;
  a

let fill_lengths = List.init 131 Fun.id @ [ 16_384 ]

(* [Prng.fill_bits] against [len] calls of [Prng.bool] on a twin generator:
   the same bits, zero padding, no byte past [(len + 7) / 8] touched, and
   the same [next64] afterwards. [Bitarray.random] is checked the same way. *)
let prop_prng_fill_bits_is_bool_loop =
  QCheck.Test.make ~name:"prng: fill_bits is a per-bit bool loop" ~count:200 QCheck.int64
    (fun seed ->
      List.for_all
        (fun len ->
          let g = Prng.create seed and g' = Prng.create seed in
          let want = bits_by_set len (fun _ -> Prng.bool g') in
          let nbytes = (len + 7) / 8 in
          let buf = Bytes.make (nbytes + 1) '\xff' in
          Prng.fill_bits g buf len;
          let padding_zero = len land 7 = 0 || Char.code (Bytes.get buf (len lsr 3)) lsr (len land 7) = 0 in
          let got = Bitarray.of_packed len (Bytes.sub buf 0 nbytes) in
          let same_next = Int64.equal (Prng.next64 g) (Prng.next64 g') in
          let h = Prng.create seed and h' = Prng.create seed in
          let random = Bitarray.random h len in
          let random_ok =
            Bitarray.equal random (bits_by_set len (fun _ -> Prng.bool h'))
            && Int64.equal (Prng.next64 h) (Prng.next64 h')
          in
          Bitarray.equal got want && padding_zero && Bytes.get buf nbytes = '\xff' && same_next
          && random_ok)
        fill_lengths)

let prop_bits_init_calls_in_order =
  QCheck.Test.make ~name:"bitarray: init calls f once per index, ascending" ~count:200
    QCheck.int64 (fun seed ->
      let g = Prng.create seed in
      List.for_all
        (fun len ->
          let pattern = Array.init len (fun _ -> Prng.bool g) in
          let log = ref [] in
          let a = Bitarray.init len (fun r -> log := r :: !log; pattern.(r)) in
          List.rev !log = List.init len Fun.id
          && Bitarray.equal a (bits_by_set len (fun r -> pattern.(r))))
        (List.init 131 Fun.id))

let prop_bits_lognot_is_per_bit_not =
  QCheck.Test.make ~name:"bitarray: lognot is a per-bit not" ~count:200 QCheck.int64
    (fun seed ->
      let g = Prng.create seed in
      List.for_all
        (fun len ->
          let b = Bitarray.random g len in
          let want = bits_by_set len (fun r -> not (Bitarray.get b r)) in
          let c = Bitarray.lognot b in
          Bitarray.equal c want
          && Bitarray.equal c (Bitarray.init len (fun r -> not (Bitarray.get b r)))
          && Bitarray.equal (Bitarray.lognot c) b)
        (List.init 131 Fun.id))

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

(* A pushed time, resolved against the last time popped: tied small ints,
   uniform floats just past it, 1e6 outliers, infinities, negative times
   and times below it. *)
type heap_time = Tied of int | After of float | Outlier of float | Below of float | Fixed of float

type heap_op = Push of heap_time * bool  (** [true]: reuse a popped value *) | Pop

let heap_time_gen ~tied ~special =
  QCheck.Gen.(
    frequency
      [
        (tied, map (fun i -> Tied i) (int_range 0 4));
        (16, map (fun x -> After x) (float_bound_exclusive 1.));
        (special, map (fun x -> Outlier (1e6 +. x)) (float_bound_inclusive 1e6));
        (special, map (fun t -> Fixed t) (oneofl [ infinity; neg_infinity ]));
        (2, map (fun x -> Fixed (-.x)) (float_bound_inclusive 100.));
        (2, map (fun x -> Below x) (float_bound_inclusive 1.));
      ])

let print_heap_op = function
  | Pop -> "pop"
  | Push (t, reuse) ->
    let t =
      match t with
      | Tied i -> string_of_int i
      | After x -> Printf.sprintf "last+%h" x
      | Below x -> Printf.sprintf "last-%h" x
      | Outlier t | Fixed t -> Printf.sprintf "%h" t
    in
    if reuse then t ^ "(reuse)" else t

(* Runs of 25-35 bursts of 40-120 pushes then 40-120 pops (so at least
   2,000 operations), then a full drain: every pop returns the pending
   entry that is least by (time, insertion order), exactly as a sorted
   list does. Bursts build far lists long enough to spread over windows
   and to grow the arrays mid-epoch; a run's time mix is drawn once, so
   some runs keep them spreadable and others put infinities or ties in
   them. A popped value goes back to a free list that later pushes may
   take while other entries are still pending. *)
let prop_heap_matches_reference =
  let module Heap = Dr_engine.Heap in
  let gen =
    QCheck.Gen.(
      pair (oneofl [ 0; 4 ]) (oneofl [ 0; 1 ]) >>= fun (tied, special) ->
      let push = map2 (fun t reuse -> Push (t, reuse)) (heap_time_gen ~tied ~special) bool in
      let burst =
        pair (int_range 40 120) (int_range 40 120) >>= fun (pushes, pops) ->
        map (fun ps -> ps @ List.init pops (fun _ -> Pop)) (list_repeat pushes push)
      in
      map List.concat (list_size (int_range 25 35) burst))
  in
  let print ops = String.concat " " (List.map print_heap_op ops) in
  QCheck.Test.make ~name:"heap: pops in (time, insertion order)" ~count:300
    (QCheck.make ~print gen)
    (fun ops ->
      let h = Heap.create () in
      (* Pending (time, seq, value), sorted. *)
      let pending = ref [] and next_seq = ref 0 and next_value = ref 0 in
      let free = ref [] and last = ref 0. and ok = ref true in
      let rec insert e = function
        | x :: rest when compare x e < 0 -> x :: insert e rest
        | l -> e :: l
      in
      let pop_both () =
        match !pending with
        | [] -> ok := !ok && Heap.is_empty h
        | (time, _, value) :: rest ->
          pending := rest;
          let cell = [| nan |] in
          let v = Heap.pop_min h ~time:cell in
          ok := !ok && cell.(0) = time && v = value;
          if Float.is_finite time then last := time;
          free := value :: !free
      in
      List.iter
        (function
          | Push (t, reuse) ->
            let time =
              match t with
              | Tied i -> float_of_int i
              | After x -> !last +. x
              | Below x -> !last -. x
              | Outlier t | Fixed t -> t
            in
            let value =
              match !free with
              | v :: rest when reuse ->
                free := rest;
                v
              | _ ->
                incr next_value;
                !next_value - 1
            in
            Heap.push h ~time:[| time |] value;
            pending := insert (time, !next_seq, value) !pending;
            incr next_seq
          | Pop -> pop_both ())
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

(* The store's leader path against the same list model, checked after every
   report. A report is one string of a pool: either the pool's one physical
   value, as every recipient of a simulator broadcast holds, or a fresh
   equal-content copy. Each stream opens with forgeries (any pool string
   but the honest one) before the honest string arrives, then mixes mostly
   the honest string and one rival, so leads tie and change hands. The pool
   has three lengths, so one segment holds strings of mixed lengths. *)
let prop_frequent_leader_matches_model =
  let pool = [| "0110"; "0111"; "1110"; "011"; "01101"; "1" |] in
  let shared = Array.map Bitarray.of_string pool in
  let report str_gen = QCheck.Gen.(quad (int_range 0 3) (int_range 0 40) str_gen bool) in
  let gen =
    QCheck.Gen.(
      map2 ( @ )
        (list_size (int_range 0 8) (report (int_range 1 5)))
        (list_size (int_range 0 60)
           (report (frequency [ (4, return 0); (3, return 1); (1, int_range 2 5) ]))))
  in
  let print reports =
    String.concat " "
      (List.map
         (fun (seg, peer, idx, copy) ->
           Printf.sprintf "%d:%d:%s%s" seg peer pool.(idx) (if copy then "'" else ""))
         reports)
  in
  QCheck.Test.make ~name:"frequent: leader path matches a list-of-reports model" ~count:300
    (QCheck.make ~print gen)
    (fun reports ->
      let st = Frequent.create () in
      let accepted = ref [] in
      let model_strings seg =
        List.filter_map (fun (g, _, s) -> if g = seg then Some s else None) !accepted
        |> List.sort_uniq (fun a b -> Bitarray.compare (Bitarray.of_string b) (Bitarray.of_string a))
        |> List.map (fun s ->
               (s, List.length (List.filter (fun (g, _, s') -> g = seg && s' = s) !accepted)))
      in
      let model_frequent seg rho =
        List.filter_map (fun (s, c) -> if c >= rho then Some s else None) (model_strings seg)
      in
      let agree () =
        List.for_all
          (fun seg ->
            List.map (fun (b, c) -> (Bitarray.to_string b, c)) (Frequent.strings_for st ~seg)
            = model_strings seg
            && List.for_all
                 (fun rho ->
                   List.map Bitarray.to_string (Frequent.frequent st ~seg ~rho)
                   = model_frequent seg rho
                   && Frequent.has_frequent st ~seg ~rho = (model_frequent seg rho <> []))
                 (List.init 6 Fun.id))
          (List.init 5 Fun.id)
        && List.for_all
             (fun segments ->
               List.for_all
                 (fun rho ->
                   Frequent.covered st ~segments ~rho
                   = List.for_all (fun seg -> model_frequent seg rho <> []) (List.init segments Fun.id))
                 [ 1; 2; 3 ])
             (List.init 5 Fun.id)
      in
      List.for_all
        (fun (seg, peer, idx, copy) ->
          let fresh = not (List.exists (fun (_, p, _) -> p = peer) !accepted) in
          if fresh then accepted := (seg, peer, pool.(idx)) :: !accepted;
          let s = if copy then Bitarray.of_string pool.(idx) else shared.(idx) in
          Frequent.add st ~seg ~peer s = fresh && agree ())
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
      latency = (fun ~src ~dst ~size_bits:_ -> latency src dst);
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
(* Warm runs                                                           *)
(* ------------------------------------------------------------------ *)

(* One run of a sequence: a k-peer round of one query, a broadcast, an
   [await] for half the others, a send to the next peer and a [receive],
   under the given scheduling, links, crashes and instrumentation. [stop]
   ends it early: at an event limit, or with a negative latency on the
   n-th send. *)
type warm_run = {
  wk : int;
  arbitrated : bool;
  traced : bool;
  observed : bool;
  crashes : Sim.crash_spec array;
  link : [ `Unit | `Jittered | `Serialized ];
  stop : [ `Done | `Limit of int | `Abort of int ];
  wseed : int;
}

let warm_round k i =
  let a = Vsim.query i and b = Vsim.query (i + 1) in
  Vsim.broadcast (Vmsg.V (if a then i else -i));
  let heard = ref 0 in
  Vsim.await ~ready:(fun () -> !heard >= (k - 1) / 2) ~on:(fun _ _ -> incr heard);
  Vsim.send ((i + 1) mod k) (Vmsg.V (if b then 1 else 0));
  let src, Vmsg.V v = Vsim.receive () in
  (!heard, src, v)

(* Everything a run shows: its outcome (or the error it raised), its trace
   and its observer stream. *)
let warm_execute r =
  let k = r.wk in
  let trace = if r.traced then Some (Dr_engine.Trace.create ()) else None in
  let seen = ref [] in
  let observer = if r.observed then Some (fun o -> seen := o :: !seen) else None in
  let jitter = Latency.jittered (Prng.create (Int64.of_int r.wseed)) in
  let sends = ref 0 in
  let latency ~src ~dst ~size_bits =
    incr sends;
    match (r.stop, r.link) with
    | `Abort n, _ when !sends = n -> -1.
    | _, `Unit -> 1.
    | _, (`Jittered | `Serialized) -> jitter ~src ~dst ~size_bits
  in
  let choices = Prng.create (Int64.of_int (r.wseed + 1)) in
  let base = Sim.default_config ~k ~query_bit:(fun ~peer:_ i -> i mod 3 = 0) in
  let cfg =
    {
      base with
      seed = Int64.of_int r.wseed;
      latency;
      link_rate = (if r.link = `Serialized then 16. else infinity);
      crash = (fun i -> r.crashes.(i));
      trace;
      observer;
      max_events = (match r.stop with `Limit n -> n | `Done | `Abort _ -> base.Sim.max_events);
      arbiter = (if r.arbitrated then Some (fun count -> Prng.int choices count) else None);
    }
  in
  let result =
    match Vsim.run cfg (warm_round k) with
    | o ->
      Ok
        ( o.Sim.outputs,
          o.Sim.status,
          o.Sim.events,
          o.Sim.end_time,
          List.init k (Dr_engine.Metrics.peer o.Sim.metrics) )
    | exception Invalid_argument msg -> Error msg
  in
  (result, Option.map Dr_engine.Trace.events trace, List.rev !seen)

(* Random sequences of 2-6 runs in one domain, where each run after the
   first starts warm from the storage the one before left (or cold, after
   an aborted run): each must equal the same run done first in a fresh
   domain. A queue or slot pool that kept state from an earlier run, above
   all one stopped at its event limit with events pending, shows up as a
   different schedule. *)
let prop_warm_run_matches_cold =
  let run_gen =
    QCheck.Gen.(
      int_range 2 40 >>= fun wk ->
      let crash =
        frequency
          [
            (8, return Sim.Never);
            (1, map (fun t -> Sim.At_time t) (float_bound_inclusive 3.));
            (1, map (fun j -> Sim.After_sends j) (int_range 0 wk));
            (1, map (fun j -> Sim.After_queries j) (int_range 0 2));
          ]
      in
      let stop =
        frequency
          [
            (4, return `Done);
            (1, map (fun n -> `Limit n) (int_range 1 (wk * wk)));
            (1, map (fun n -> `Abort n) (int_range 1 (wk * wk)));
          ]
      in
      map
        (fun ((arbitrated, traced, observed), crashes, (link, stop, wseed)) ->
          { wk; arbitrated; traced; observed; crashes; link; stop; wseed })
        (triple (triple bool bool bool) (array_repeat wk crash)
           (triple (oneofl [ `Unit; `Jittered; `Serialized ]) stop (int_range 0 1_000_000))))
  in
  let print runs =
    String.concat "; "
      (List.map
         (fun r ->
           Printf.sprintf "k=%d%s%s%s %s %s seed=%d" r.wk
             (if r.arbitrated then " arbiter" else "")
             (if r.traced then " trace" else "")
             (if r.observed then " observer" else "")
             (match r.link with `Unit -> "unit" | `Jittered -> "jitter" | `Serialized -> "serial")
             (match r.stop with
             | `Done -> "done"
             | `Limit n -> Printf.sprintf "limit=%d" n
             | `Abort n -> Printf.sprintf "abort=%d" n)
             r.wseed)
         runs)
  in
  QCheck.Test.make ~name:"sim: a warm run equals a cold run" ~count:100
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 2 6) run_gen))
    (fun runs ->
      let in_fresh_domain f = Domain.join (Domain.spawn f) in
      let warm = in_fresh_domain (fun () -> List.map warm_execute runs) in
      let cold = List.map (fun r -> in_fresh_domain (fun () -> warm_execute r)) runs in
      warm = cold)

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

(* [Committee.rank]'s arithmetic against the member list it replaces on the
   delivery path: below the size exactly for the members, and then the
   member's index in the list. *)
let prop_committee_rank_matches_list =
  QCheck.Test.make ~name:"committee: rank matches the member list" ~count:500
    QCheck.(
      make
        ~print:(fun (k, size, j, i) -> Printf.sprintf "k=%d size=%d j=%d i=%d" k size j i)
        Gen.(
          int_range 1 64 >>= fun k ->
          int_range 1 k >>= fun size ->
          int_range 0 10_000 >>= fun j ->
          int_range 0 (k - 1) >>= fun i -> return (k, size, j, i)))
    (fun (k, size, j, i) ->
      let members = Committee.committee ~k ~size j in
      let r = Committee.rank ~k ~size j i in
      Bool.equal (r < size) (List.mem i members) && (r >= size || List.nth members r = i))

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
  fun ~src ~dst ~size_bits:_ ->
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

(* ------------------------------------------------------------------ *)
(* Coverage signatures                                                 *)
(* ------------------------------------------------------------------ *)

(* The signature hash as it was written over [Int64]: the reference the
   native-int hash behind [Explore.probe] must match bit for bit. *)
let reference_signature ?(bucket = 8) (o : Dr_engine.Sim.obs) =
  let module Sim = Dr_engine.Sim in
  let h = ref 0xcbf29ce484222325L in
  let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int (byte land 0xff))) 0x100000001b3L in
  mix
    (match o.Sim.obs_kind with
    | Sim.Obs_start -> 1
    | Sim.Obs_deliver -> 2
    | Sim.Obs_crash -> 3
    | Sim.Obs_query_reply -> 4
    | Sim.Obs_wake -> 5);
  String.iter (fun c -> mix (Char.code c)) o.Sim.obs_tag;
  let b = o.Sim.obs_step / max bucket 1 in
  mix (b land 0xff);
  mix ((b lsr 8) land 0xff);
  mix ((b lsr 16) land 0xff);
  Int64.to_int !h land 0x3FFFFFFF

let prop_signature_matches_int64 =
  let module Sim = Dr_engine.Sim in
  let kinds = [ Sim.Obs_start; Sim.Obs_deliver; Sim.Obs_crash; Sim.Obs_query_reply; Sim.Obs_wake ] in
  let gen =
    QCheck.Gen.(
      let* obs_kind = oneofl kinds in
      let* obs_tag =
        (* Empty, protocol-like and arbitrary bytes, [\x80]-[\xff] included. *)
        oneof
          [
            return "";
            map (Printf.sprintf "seg(c%d,%d)" 1) small_nat;
            string_size ~gen:char (int_range 0 40);
            string_size ~gen:(map Char.chr (int_range 0x80 0xff)) (int_range 1 12);
          ]
      in
      let* obs_step = oneof [ int_range 0 64; int_range 0 (1 lsl 26) ] in
      let* obs_peer = int_range 0 127 in
      let* bucket =
        oneof [ opt (oneofl [ 0; -1; -8; 8 ]); opt (int_range (-20) 1000) ]
      in
      return ({ Sim.obs_kind; obs_peer; obs_tag; obs_step }, bucket))
  in
  let print ((o : Sim.obs), bucket) =
    Printf.sprintf "kind #%d, tag %S, step %d, bucket %s"
      (Option.get (List.find_index (( = ) o.Sim.obs_kind) kinds))
      o.Sim.obs_tag o.Sim.obs_step
      (match bucket with None -> "default" | Some b -> string_of_int b)
  in
  QCheck.Test.make ~name:"explore: signature matches the Int64 FNV-1a" ~count:1000
    (QCheck.make ~print gen)
    (fun (o, bucket) ->
      let probe = Dr_engine.Explore.probe ?bucket () in
      probe.Dr_engine.Explore.observer o;
      probe.Dr_engine.Explore.hits () = [ reference_signature ?bucket o ])

(* [Data_source.read_range] packs a range as [Bitarray.sub] does (empty,
   one-bit and unaligned ranges included), answers a repeated read with the
   same bytes and charges it again, and never lets two different ranges
   share bytes, except that every one-bit read of a value gets that value's
   constant byte. A [~share:false] source answers a repeat of a range of
   two or more bits with equal, fresh bytes. *)
let prop_read_range_memo =
  QCheck.Test.make ~name:"data source: read_range memo" ~count:100 QCheck.int64
    (fun seed ->
      let g = Prng.create seed in
      let n = 1 + Prng.int g 700 in
      let x = Bitarray.random g n in
      let data = Dr_source.Data_source.create ~k:2 x in
      let read peer (pos, len) =
        let before = Dr_source.Data_source.queries_by data peer in
        let bytes = Dr_source.Data_source.read_range data ~peer ~pos ~len in
        (bytes, Dr_source.Data_source.queries_by data peer - before)
      in
      let random_range () =
        let len = Prng.int g (n + 1) in
        (Prng.int g (n - len + 1), len)
      in
      let ranges =
        [ (0, 0); (n, 0); (0, 1); (n - 1, 1); (Prng.int g n, 1); (1, Int.min 9 (n - 1)) ]
        @ List.init 20 (fun _ -> random_range ())
      in
      let first = List.map (fun r -> (r, read 0 r)) ranges in
      let packed_as_sub =
        List.for_all
          (fun ((pos, len), (bytes, charged)) ->
            charged = len && Bitarray.equal (Bitarray.of_packed len bytes) (Bitarray.sub x ~pos ~len))
          first
      in
      let repeat_shares =
        List.for_all
          (fun (r, (bytes, _)) ->
            let again, charged = read 1 r in
            again == bytes && charged = snd r)
          first
      in
      let never_alias =
        List.for_all
          (fun ((p, l), (b, _)) ->
            List.for_all
              (fun ((p', l'), (b', _)) ->
                (p = p' && l = l') || b != b' || (l = 1 && l' = 1 && Bytes.equal b b'))
              first)
          first
      in
      let fresh = Dr_source.Data_source.create ~share:false ~k:1 x in
      let unshared =
        List.for_all
          (fun ((pos, len), (bytes, _)) ->
            let a = Dr_source.Data_source.read_range fresh ~peer:0 ~pos ~len in
            let b = Dr_source.Data_source.read_range fresh ~peer:0 ~pos ~len in
            Bytes.equal a bytes && Bytes.equal b bytes && (len < 2 || a != b))
          first
      in
      packed_as_sub && repeat_shares && never_alias && unshared)

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
      prop_prng_fill_bits_is_bool_loop;
      prop_bits_init_calls_in_order;
      prop_bits_lognot_is_per_bit_not;
      prop_segment_tiles;
      prop_segment_of_bit;
      prop_segment_children_concat;
      prop_wire_roundtrip;
      prop_tree_recovers_truth;
      prop_tree_node_count;
      prop_heap_matches_reference;
      prop_frequent_matches_model;
      prop_frequent_leader_matches_model;
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
      [
        prop_has_frequent_matches_frequent;
        prop_sim_matches_reference_scheduler;
        prop_signature_matches_int64;
        prop_warm_run_matches_cold;
        prop_committee_rank_matches_list;
        prop_read_range_memo;
      ]
