(* Tests for the simulation substrate: PRNG, heap, and the effects-based
   event loop. *)

open Dr_engine

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next64 a <> Prng.next64 b then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_prng_int_bounds () =
  let g = Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_one () =
  let g = Prng.create 7L in
  for _ = 1 to 10 do
    checki "bound 1 is 0" 0 (Prng.int g 1)
  done

let test_prng_float_bounds () =
  let g = Prng.create 3L in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    checkb "in range" true (v >= 0. && v < 2.5)
  done

let test_prng_split_independent () =
  let g = Prng.create 5L in
  let a = Prng.split g in
  let b = Prng.split g in
  (* The two children produce different streams. *)
  checkb "children differ" true (Prng.next64 a <> Prng.next64 b)

let test_prng_split_deterministic () =
  let mk () =
    let g = Prng.create 9L in
    let c = Prng.split g in
    Prng.next64 c
  in
  check Alcotest.int64 "split reproducible" (mk ()) (mk ())

let test_prng_int_roughly_uniform () =
  let g = Prng.create 11L in
  let buckets = Array.make 10 0 in
  let rounds = 10_000 in
  for _ = 1 to rounds do
    let v = Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "bucket %d near uniform (%d)" i c) true (c > 700 && c < 1300))
    buckets

let test_prng_bool_balance () =
  let g = Prng.create 13L in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bool g then incr trues
  done;
  checkb "balanced" true (!trues > 4500 && !trues < 5500)

let test_prng_shuffle_permutation () =
  let g = Prng.create 17L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 Fun.id) sorted

(* The generator's output, pinned as literals: a change of the state's
   representation must keep every stream bit-identical, independently of
   the protocol goldens that consume them. *)
let test_prng_golden_stream () =
  let first8 g = List.init 8 (fun _ -> Prng.next64 g) in
  check Alcotest.(list int64) "create 1L"
    [
      -5480124913605472059L;
      -8846382939111011094L;
      -7856363154187860716L;
      7218738570589545383L;
      -5586072249713871245L;
      2648436617965840162L;
      1310552918490157286L;
      7031611932980406429L;
    ]
    (first8 (Prng.create 1L));
  check Alcotest.(list int64) "split (create 42L)"
    [
      -8150312660505607085L;
      1184342940732292706L;
      8258043193327897829L;
      -7937530469794552443L;
      4090181005887697149L;
      -2072551135223332111L;
      3558450685933495791L;
      -5406025633808992172L;
    ]
    (first8 (Prng.split (Prng.create 42L)));
  check Alcotest.(float 0.) "float (create 7L) 1." 0x1.66b1f5ee9df2ep-1
    (Prng.float (Prng.create 7L) 1.)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

(* The one-slot cell times cross [Heap] in. *)
let cell t = [| t |]

(* Pop every pending event as (time, value), earliest first. *)
let drain h =
  let out = ref [] and time = cell nan in
  while not (Heap.is_empty h) do
    let v = Heap.pop_min h ~time in
    out := (time.(0), v) :: !out
  done;
  List.rev !out

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter
    (fun t -> Heap.push h ~time:(cell t) (int_of_float (t *. 10.)))
    [ 3.0; 1.0; 2.0; 0.5; 2.5 ];
  check Alcotest.(list int) "sorted by time" [ 5; 10; 20; 25; 30 ] (List.map snd (drain h))

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.push h ~time:(cell 1.0) i
  done;
  check Alcotest.(list int) "ties in insertion order" (List.init 100 Fun.id)
    (List.map snd (drain h))

let test_heap_interleaved () =
  let names = [| "e"; "a"; "z" |] and time = cell nan in
  let h = Heap.create () in
  Heap.push h ~time:(cell 5.) 0;
  Heap.push h ~time:(cell 1.) 1;
  checkb "not empty" false (Heap.is_empty h);
  check Alcotest.string "first value" "a" names.(Heap.pop_min h ~time);
  check Alcotest.(float 0.0) "first time" 1. time.(0);
  Heap.push h ~time:(cell 0.5) 2;
  check Alcotest.string "reordered" "z" names.(Heap.pop_min h ~time);
  check Alcotest.(float 0.0) "reordered time" 0.5 time.(0);
  check Alcotest.(list (pair (float 0.0) string)) "one left" [ (5., "e") ]
    (List.map (fun (t, v) -> (t, names.(v))) (drain h))

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~time:(cell 1.) 1;
  checki "one event drained" 1 (List.length (drain h));
  checkb "empty after drain" true (Heap.is_empty h);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Heap.pop_min: empty") (fun () ->
      ignore (Heap.pop_min h ~time:(cell 0.)))

let test_heap_random_order_matches_sort () =
  let g = Prng.create 23L in
  let h = Heap.create () in
  let times = Array.init 500 (fun _ -> Prng.float g 100.) in
  Array.iteri (fun i t -> Heap.push h ~time:(cell t) i) times;
  let sorted = Array.copy times in
  Array.sort compare sorted;
  let out = drain h in
  check Alcotest.(list (float 0.0)) "heap sorts" (Array.to_list sorted) (List.map fst out);
  checkb "each value keeps its time" true (List.for_all (fun (t, i) -> times.(i) = t) out)

let test_heap_pop_min_matches_pop () =
  let g = Prng.create 29L in
  let times = Array.init 300 (fun _ -> Prng.float g 10.) in
  let h = Heap.create () in
  Array.iteri (fun i t -> Heap.push h ~time:(cell t) i) times;
  (* pop_min's time and value must agree with a stable sort on
     (time, insertion). *)
  let expected =
    List.stable_sort (fun (t, _) (t', _) -> Float.compare t t')
      (List.mapi (fun i t -> (t, i)) (Array.to_list times))
  in
  List.iter2
    (fun (t', v') (t, v) ->
      check Alcotest.(float 0.0) "popped time = pop time" t' t;
      checki "pop_min = pop value" v' v)
    expected (drain h);
  checkb "drained" true (Heap.is_empty h)

let test_heap_grow_preserves_order () =
  (* Push far past the initial capacity; order must survive every grow. *)
  let h = Heap.create () in
  for i = 999 downto 0 do
    Heap.push h ~time:(cell (float_of_int i)) i
  done;
  let out = drain h in
  checki "size" 1000 (List.length out);
  List.iteri (fun i (_, v) -> checki "ascending" i v) out

let test_heap_reuse_after_clear () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.push h ~time:(cell (float_of_int (100 - i))) i
  done;
  ignore (drain h);
  (* Ties after a drain: seq keeps counting, insertion order still wins. *)
  for i = 0 to 49 do
    Heap.push h ~time:(cell 3.) i
  done;
  let time = cell nan in
  for i = 0 to 49 do
    checki "fifo after clear" i (Heap.pop_min h ~time)
  done

let test_heap_empty_accessors_raise () =
  let h = Heap.create () and time = cell 7. in
  Alcotest.check_raises "pop_min" (Invalid_argument "Heap.pop_min: empty") (fun () ->
      ignore (Heap.pop_min h ~time));
  check Alcotest.(float 0.) "the cell is left alone" 7. time.(0)

(* Once the arrays have grown, removing the minimum allocates nothing:
   the sifts keep the moving key unboxed and the time goes out through a
   cell. *)
let test_heap_pop_min_allocation_free () =
  let h = Heap.create () and time = cell 0. in
  for i = 0 to 4095 do
    time.(0) <- float_of_int (i * 7919 mod 1009);
    Heap.push h ~time i
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 4096 do
    ignore (Heap.pop_min h ~time)
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.(float 0.) "minor words for 4096 pops" 0. words;
  checkb "drained" true (Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Ring                                                               *)
(* ------------------------------------------------------------------ *)

let test_ring_fifo () =
  let r = Ring.create () in
  checkb "starts empty" true (Ring.is_empty r);
  for i = 0 to 9 do
    Ring.push r i
  done;
  for i = 0 to 9 do
    checki "fifo order" i (Ring.pop r)
  done;
  checkb "drained" true (Ring.is_empty r)

let test_ring_wraps_and_grows () =
  (* Interleave pushes and pops so head walks around the circle, then grow
     with the live region wrapped. *)
  let r = Ring.create () in
  let next_in = ref 0 and next_out = ref 0 in
  for _ = 1 to 5 do
    for _ = 1 to 7 do
      Ring.push r !next_in;
      incr next_in
    done;
    for _ = 1 to 5 do
      checki "wrap order" !next_out (Ring.pop r);
      incr next_out
    done
  done;
  for _ = 1 to 100 do
    Ring.push r !next_in;
    incr next_in
  done;
  while not (Ring.is_empty r) do
    checki "post-grow order" !next_out (Ring.pop r);
    incr next_out
  done;
  checki "nothing lost" !next_in !next_out

let test_ring_clear_and_reuse () =
  let r = Ring.create () in
  for i = 0 to 20 do
    Ring.push r i
  done;
  for i = 0 to 20 do
    checki "drain order" i (Ring.pop r)
  done;
  checkb "empty after drain" true (Ring.is_empty r);
  Ring.push r 7;
  checki "usable after clear" 7 (Ring.pop r);
  Alcotest.check_raises "pop empty" (Invalid_argument "Ring.pop: empty") (fun () ->
      ignore (Ring.pop r))

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

module Smsg = struct
  type t = Ping of int | Value of bool

  let size_bits = function Ping _ -> 32 | Value _ -> 1
  let tag = function Ping i -> Printf.sprintf "ping(%d)" i | Value b -> Printf.sprintf "val(%b)" b
end

module S = Sim.Make (Smsg)

let input_bits = [| true; false; true; true |]
let query_bit ~peer:_ i = input_bits.(i)

let test_sim_pingpong () =
  (* Peer 0 sends its id to peer 1, which replies with it doubled. *)
  let cfg = Sim.default_config ~k:2 ~query_bit in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          S.send 1 (Smsg.Ping 21);
          match S.receive () with
          | _, Smsg.Ping v -> v
          | _ -> -1
        end
        else begin
          match S.receive () with
          | src, Smsg.Ping v ->
            S.send src (Smsg.Ping (v * 2));
            v
          | _ -> -1
        end)
  in
  checkb "completed" true (outcome.Sim.status = Sim.Completed);
  (match outcome.Sim.outputs.(0) with
  | Some (t, v) ->
    checki "reply doubled" 42 v;
    check Alcotest.(float 0.001) "two hops" 2.0 t
  | None -> Alcotest.fail "peer 0 has no output");
  match outcome.Sim.outputs.(1) with
  | Some (_, v) -> checki "peer1 saw 21" 21 v
  | None -> Alcotest.fail "peer 1 has no output"

let test_sim_query () =
  let cfg = Sim.default_config ~k:1 ~query_bit in
  let outcome = S.run cfg (fun _ -> List.init 4 S.query) in
  match outcome.Sim.outputs.(0) with
  | Some (_, vs) -> check Alcotest.(list bool) "queried input" [ true; false; true; true ] vs
  | None -> Alcotest.fail "no output"

let test_sim_query_metrics () =
  let cfg = Sim.default_config ~k:3 ~query_bit in
  let outcome =
    S.run cfg (fun i ->
        for _ = 1 to i + 1 do
          ignore (S.query 0)
        done;
        i)
  in
  for i = 0 to 2 do
    checki "query count" (i + 1) (Metrics.peer outcome.Sim.metrics i).Metrics.queries
  done

let test_sim_crash_at_time () =
  (* Peer 1 crashes at t=0.5; its pending send is still delivered but it
     never answers. Peer 0 blocks forever -> deadlock detected. *)
  let cfg =
    {
      (Sim.default_config ~k:2 ~query_bit) with
      crash = (fun i -> if i = 1 then Sim.At_time 0.5 else Sim.Never);
    }
  in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          S.send 1 (Smsg.Ping 1);
          let _ = S.receive () in
          0
        end
        else begin
          let _ = S.receive () in
          S.send 0 (Smsg.Ping 2);
          1
        end)
  in
  checkb "deadlock" true (outcome.Sim.status = Sim.Deadlock [ 0 ]);
  checkb "crashed peer has no output" true (outcome.Sim.outputs.(1) = None)

let test_sim_after_sends_partial_broadcast () =
  (* Peer 0 broadcasts to 4 others but dies after 2 sends. *)
  let k = 5 in
  let cfg =
    {
      (Sim.default_config ~k ~query_bit) with
      crash = (fun i -> if i = 0 then Sim.After_sends 2 else Sim.Never);
    }
  in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          S.broadcast (Smsg.Ping 9);
          0
        end
        else begin
          match S.receive () with
          | _, Smsg.Ping v -> v
          | _ -> -1
        end)
  in
  (* Peers 1 and 2 got the message; 3 and 4 blocked. *)
  checkb "sender no output" true (outcome.Sim.outputs.(0) = None);
  checkb "peer1 got it" true (outcome.Sim.outputs.(1) = Some (1.0, 9));
  checkb "peer2 got it" true (outcome.Sim.outputs.(2) = Some (1.0, 9));
  checkb "peer3 blocked" true (outcome.Sim.outputs.(3) = None);
  (match outcome.Sim.status with
  | Sim.Deadlock l -> check Alcotest.(list int) "blocked peers" [ 3; 4 ] l
  | _ -> Alcotest.fail "expected deadlock");
  checki "exactly 2 sends counted" 2 (Metrics.peer outcome.Sim.metrics 0).Metrics.msgs_sent

let test_sim_after_sends_zero_is_silent () =
  let cfg =
    {
      (Sim.default_config ~k:2 ~query_bit) with
      crash = (fun i -> if i = 0 then Sim.After_sends 0 else Sim.Never);
    }
  in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          S.send 1 (Smsg.Ping 1);
          0
        end
        else 1)
  in
  checki "no sends" 0 (Metrics.peer outcome.Sim.metrics 0).Metrics.msgs_sent;
  checkb "receiver unaffected" true (outcome.Sim.outputs.(1) <> None)

let test_sim_latency_order () =
  (* Messages with different latencies arrive in latency order, not send
     order: the core of asynchrony. *)
  let cfg =
    {
      (Sim.default_config ~k:3 ~query_bit) with
      latency =
        (fun ~src ~dst:_ ~size_bits:_ -> if src = 1 then 5.0 else 1.0);
    }
  in
  let outcome =
    S.run cfg (fun i ->
        match i with
        | 0 ->
          let s1, _ = S.receive () in
          let s2, _ = S.receive () in
          (s1 * 10) + s2
        | _ ->
          S.send 0 (Smsg.Ping i);
          i)
  in
  match outcome.Sim.outputs.(0) with
  | Some (t, v) ->
    checki "slow sender second" 21 v;
    check Alcotest.(float 0.001) "ends at slow latency" 5.0 t
  | None -> Alcotest.fail "no output"

let test_sim_mailbox_buffers () =
  (* Messages delivered before the peer asks for them are queued, not lost.
     Always firing the newest pending event runs peers 2 and 1, and delivers
     both their messages, before peer 0 starts. *)
  let cfg =
    { (Sim.default_config ~k:3 ~query_bit) with arbiter = Some (fun count -> count - 1) }
  in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          let a = S.receive () in
          let b = S.receive () in
          fst a + fst b
        end
        else begin
          S.send 0 (Smsg.Ping i);
          0
        end)
  in
  (match outcome.Sim.outputs.(0) with
  | Some (_, v) -> checki "both buffered" 3 v
  | None -> Alcotest.fail "no output")

let test_sim_start_times () =
  (* Every peer starts at time 0; only an arbiter orders the starts. *)
  let cfg = Sim.default_config ~k:3 ~query_bit in
  let outcome = S.run cfg (fun _ -> ()) in
  Array.iteri
    (fun i out -> checkb (Printf.sprintf "peer %d starts at 0" i) true (out = Some (0., ())))
    outcome.Sim.outputs;
  let order = ref [] in
  let reversed = { cfg with arbiter = Some (fun count -> count - 1) } in
  ignore (S.run reversed (fun i -> order := i :: !order));
  check Alcotest.(list int) "arbiter starts the newest first" [ 2; 1; 0 ] (List.rev !order)

let test_sim_deterministic_replay () =
  (* Two runs with the same seed produce identical outputs and timings. *)
  let run () =
    let cfg =
      { (Sim.default_config ~k:4 ~query_bit) with seed = 99L }
    in
    let outcome =
      S.run cfg (fun _i ->
          let g = S.rng () in
          let v = Prng.int g 1000 in
          S.broadcast (Smsg.Ping v);
          let acc = ref v in
          for _ = 1 to 3 do
            match S.receive () with
            | _, Smsg.Ping w -> acc := !acc + w
            | _ -> ()
          done;
          !acc)
    in
    Array.map (function Some (_, v) -> v | None -> -1) outcome.Sim.outputs
  in
  let first = run () in
  checkb "every peer finished the all-to-all round" true (Array.for_all (fun v -> v >= 0) first);
  check Alcotest.(array int) "replay identical" first (run ())

let test_sim_rng_isolated_from_schedule () =
  (* A peer's random stream does not depend on what others do. *)
  let draw k =
    let cfg = { (Sim.default_config ~k ~query_bit) with seed = 5L } in
    let outcome =
      S.run cfg (fun i -> if i = 0 then Prng.int (S.rng ()) 1_000_000 else -1)
    in
    match outcome.Sim.outputs.(0) with Some (_, v) -> v | None -> -1
  in
  checki "same first draw regardless of k" (draw 2) (draw 2);
  (* Note: with different k the master split sequence differs only for later
     peers; peer 0's stream is the first split either way. *)
  checki "k-independent" (draw 2) (draw 5)

let test_sim_trace_records () =
  let trace = Trace.create () in
  let cfg = { (Sim.default_config ~k:2 ~query_bit) with trace = Some trace } in
  let _ =
    S.run cfg (fun i ->
        if i = 0 then begin
          ignore (S.query 2);
          S.send 1 (Smsg.Ping 3);
          0
        end
        else begin
          let _ = S.receive () in
          1
        end)
  in
  let evs = Trace.events trace in
  let has p = List.exists p evs in
  checkb "has query" true
    (has (function Trace.Queried { peer = 0; index = 2; value = true; _ } -> true | _ -> false));
  checkb "has send" true
    (has (function Trace.Sent { src = 0; dst = 1; _ } -> true | _ -> false));
  checkb "has delivery" true
    (has (function Trace.Delivered { src = 0; dst = 1; _ } -> true | _ -> false));
  checkb "has terminations" true
    (has (function Trace.Terminated { peer = 1; _ } -> true | _ -> false));
  checki "query view" 1 (List.length (Trace.query_view trace 0))

let test_sim_query_latency () =
  (* A source read is answered within the event that issued it: no event of
     its own, and no virtual time passes. *)
  let trace = Trace.create () in
  let cfg = { (Sim.default_config ~k:1 ~query_bit) with trace = Some trace } in
  let outcome =
    S.run cfg (fun _ ->
        ignore (S.query 0);
        ignore (S.query 1))
  in
  checkb "answered at t=0" true (outcome.Sim.outputs.(0) = Some (0., ()));
  checki "one event: the start" 1 outcome.Sim.events;
  let times =
    List.filter_map
      (function Trace.Queried { time; index; _ } -> Some (index, time) | _ -> None)
      (Trace.events trace)
  in
  checkb "both Queried records at t=0" true (times = [ (0, 0.); (1, 0.) ])

let test_sim_die () =
  let cfg = Sim.default_config ~k:2 ~query_bit in
  let outcome = S.run cfg (fun i -> if i = 0 then S.die () else 1) in
  checkb "dead peer no output" true (outcome.Sim.outputs.(0) = None);
  checkb "other completes" true (outcome.Sim.outputs.(1) <> None);
  checkb "overall completed (dier is not blocked)" true (outcome.Sim.status = Sim.Completed)

let test_sim_event_limit () =
  let cfg = { (Sim.default_config ~k:2 ~query_bit) with max_events = 50 } in
  let outcome =
    S.run cfg (fun i ->
        (* Infinite ping-pong. *)
        let other = 1 - i in
        if i = 0 then S.send other (Smsg.Ping 0);
        let rec loop () =
          let _ = S.receive () in
          S.send other (Smsg.Ping 0);
          loop ()
        in
        loop ())
  in
  checkb "limit reached" true (outcome.Sim.status = Sim.Event_limit_reached)

let test_sim_send_to_self () =
  let cfg = Sim.default_config ~k:2 ~query_bit in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          S.send 0 (Smsg.Ping 5);
          match S.receive () with
          | src, Smsg.Ping v -> (src * 100) + v
          | _ -> -1
        end
        else 0)
  in
  checkb "self-send delivered" true (outcome.Sim.outputs.(0) = Some (1.0, 5))

let test_sim_send_bad_destination () =
  let cfg = Sim.default_config ~k:2 ~query_bit in
  Alcotest.check_raises "bad dst" (Invalid_argument "Sim.send: bad destination") (fun () ->
      ignore (S.run cfg (fun i -> if i = 0 then S.send 7 (Smsg.Ping 1) else ())))

let test_sim_negative_latency_rejected () =
  let cfg =
    {
      (Sim.default_config ~k:2 ~query_bit) with
      latency = (fun ~src:_ ~dst:_ ~size_bits:_ -> -1.);
    }
  in
  Alcotest.check_raises "negative latency" (Invalid_argument "Sim.run: negative latency")
    (fun () -> ignore (S.run cfg (fun i -> if i = 0 then S.send 1 (Smsg.Ping 1) else ())))

let test_sim_crash_during_query_wait () =
  (* A peer that has queried and then blocks in [receive] is killed cleanly
     by an At_time crash. *)
  let cfg =
    {
      (Sim.default_config ~k:2 ~query_bit) with
      crash = (fun i -> if i = 0 then Sim.At_time 5. else Sim.Never);
    }
  in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          ignore (S.query 0);
          ignore (S.query 1);
          ignore (S.receive ());
          1
        end
        else 2)
  in
  checkb "victim has no output" true (outcome.Sim.outputs.(0) = None);
  checki "victim's queries charged" 2 (Metrics.peer outcome.Sim.metrics 0).Metrics.queries;
  check Alcotest.(float 0.) "crash fired at t=5" 5. outcome.Sim.end_time;
  checkb "other peer unaffected" true (outcome.Sim.outputs.(1) = Some (0., 2));
  checkb "completed (victim is dead, not blocked)" true (outcome.Sim.status = Sim.Completed)

let test_sim_crash_before_start () =
  (* The pool holds [start 0; start 1; crash 0]; firing the newest first
     crashes peer 0 before its start, so it never runs. *)
  let cfg =
    {
      (Sim.default_config ~k:2 ~query_bit) with
      crash = (fun i -> if i = 0 then Sim.At_time 1. else Sim.Never);
      arbiter = Some (fun count -> count - 1);
    }
  in
  let outcome =
    S.run cfg (fun i ->
        if i = 0 then begin
          ignore (S.query 0);
          S.send 1 (Smsg.Ping 0)
        end;
        i)
  in
  checkb "never started" true (outcome.Sim.outputs.(0) = None);
  checkb "other peer ran" true (outcome.Sim.outputs.(1) <> None);
  let victim = Metrics.peer outcome.Sim.metrics 0 in
  checki "no queries" 0 victim.Metrics.queries;
  checki "no sends" 0 victim.Metrics.msgs_sent

let test_sim_after_queries_crash () =
  let cfg =
    {
      (Sim.default_config ~k:1 ~query_bit) with
      crash = (fun _ -> Sim.After_queries 2);
    }
  in
  let outcome =
    S.run cfg (fun _ ->
        ignore (S.query 0);
        ignore (S.query 1);
        ignore (S.query 2);
        0)
  in
  checkb "died at the second query" true (outcome.Sim.outputs.(0) = None);
  checki "exactly 2 queries counted" 2 (Metrics.peer outcome.Sim.metrics 0).Metrics.queries

(* The arbiter's pending pool, pinned directly: a k=4 storm of two broadcasts
   per peer, observed as (kind, peer, tag) under three arbiters. Events join
   the pool in heap order and keep their relative order when one is removed;
   an out-of-range pick falls back to index 0. The expected sequences are
   those of the original list-based pool, so committed repro files (which
   record arbiter choices by index) keep replaying. *)
let arbiter_storm arbiter =
  let seen = Buffer.create 256 in
  let observer o =
    let kind =
      match o.Sim.obs_kind with
      | Sim.Obs_start -> "S"
      | Sim.Obs_deliver -> "D"
      | Sim.Obs_crash -> "C"
      | Sim.Obs_query_reply -> "Q"
      | Sim.Obs_wake -> "W"
    in
    if Buffer.length seen > 0 then Buffer.add_char seen ' ';
    Buffer.add_string seen (Printf.sprintf "%s%d%s" kind o.Sim.obs_peer o.Sim.obs_tag)
  in
  let cfg =
    {
      (Sim.default_config ~k:4 ~query_bit) with
      arbiter = Some arbiter;
      observer = Some observer;
    }
  in
  let outcome =
    S.run cfg (fun i ->
        S.broadcast (Smsg.Ping i);
        S.broadcast (Smsg.Ping (10 + i));
        for _ = 1 to 6 do
          ignore (S.receive ())
        done)
  in
  checkb "completed" true (outcome.Sim.status = Sim.Completed);
  Buffer.contents seen

let test_sim_arbiter_pool_order () =
  let checks = Alcotest.(check string) in
  checks "last pending"
    "S3 D2ping(13) D1ping(13) D0ping(13) D2ping(3) D1ping(3) D0ping(3) S2 D3ping(12) \
     D1ping(12) D0ping(12) D3ping(2) D1ping(2) D0ping(2) S1 D3ping(11) D2ping(11) D0ping(11) \
     D3ping(1) D2ping(1) D0ping(1) S0 D3ping(10) D2ping(10) D1ping(10) D3ping(0) D2ping(0) \
     D1ping(0)"
    (arbiter_storm (fun count -> count - 1));
  checks "middle pending"
    "S2 D1ping(2) D3ping(2) D0ping(2) D0ping(12) S3 D1ping(3) D0ping(3) D2ping(3) D3ping(12) \
     D0ping(13) D1ping(12) D1ping(13) S1 D3ping(1) D2ping(1) D0ping(11) D0ping(1) D2ping(11) \
     D2ping(13) D3ping(11) S0 D1ping(10) D3ping(0) D2ping(10) D2ping(0) D3ping(10) D1ping(0)"
    (arbiter_storm (fun count -> count / 2));
  checks "out of range falls back to 0"
    "S0 S1 S2 S3 D1ping(0) D2ping(0) D3ping(0) D1ping(10) D2ping(10) D3ping(10) D0ping(1) \
     D2ping(1) D3ping(1) D0ping(11) D2ping(11) D3ping(11) D0ping(2) D1ping(2) D3ping(2) \
     D0ping(12) D1ping(12) D3ping(12) D0ping(3) D1ping(3) D2ping(3) D0ping(13) D1ping(13) \
     D2ping(13)"
    (arbiter_storm (fun count -> count))

let test_trace_stats_matrices () =
  let trace = Trace.create () in
  let cfg = { (Sim.default_config ~k:3 ~query_bit) with trace = Some trace } in
  let _ =
    S.run cfg (fun i ->
        if i = 0 then begin
          S.send 1 (Smsg.Ping 1);
          S.send 1 (Smsg.Ping 2);
          S.send 2 (Smsg.Value true);
          0
        end
        else begin
          ignore (S.query 0);
          let _ = S.receive () in
          if i = 1 then ignore (S.receive ());
          i
        end)
  in
  let m = Trace_stats.message_matrix trace ~k:3 in
  checki "0->1 twice" 2 m.(0).(1);
  checki "0->2 once" 1 m.(0).(2);
  checki "no reverse" 0 m.(1).(0);
  let b = Trace_stats.bits_matrix trace ~k:3 in
  checki "bits 0->1" 64 b.(0).(1);
  checki "bits 0->2" 1 b.(0).(2);
  checki "deliveries match sends" 2
    (List.length (List.filter (fun (_, src, _) -> src = 0) (Trace.received_view trace 1)));
  check Alcotest.(array int) "queries" [| 0; 1; 1 |]
    (Array.init 3 (fun p -> List.length (Trace.query_view trace p)));
  checkb "renders" true
    (String.length (Format.asprintf "%a" (Trace_stats.pp_matrix ~label:"m") m) > 0)

let test_trace_save_load_roundtrip () =
  let trace = Trace.create () in
  List.iter (Trace.record trace)
    [
      Trace.Sent { time = 0.; src = 0; dst = 1; size_bits = 72; tag = "share(0.1)" };
      Trace.Delivered { time = 0.75; src = 0; dst = 1; tag = "share(0.1)" };
      Trace.Queried { time = 1.; peer = 2; index = 17; value = true };
      Trace.Queried { time = 1.; peer = 2; index = 18; value = false };
      Trace.Crashed { time = 1.5; peer = 3 };
      Trace.Terminated { time = 2.25; peer = 0 };
      Trace.Deadlocked { time = 3.; blocked = [ 1; 2 ] };
    ];
  let path = Filename.temp_file "dr_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save trace path;
      let back = Trace.load path in
      checkb "same events" true (Trace.events back = Trace.events trace))

let test_trace_load_rejects_garbage () =
  let path = Filename.temp_file "dr_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "sent nonsense\n";
      close_out oc;
      match Trace.load path with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ())

(* [save] refuses a tag that would split its line, naming the event,
   before it opens the file. *)
let test_trace_save_rejects_newline_tag () =
  let trace = Trace.create () in
  List.iter (Trace.record trace)
    [
      Trace.Sent { time = 0.; src = 0; dst = 1; size_bits = 8; tag = "ok" };
      Trace.Delivered { time = 1.; src = 0; dst = 1; tag = "two\nlines" };
    ];
  let path = Filename.temp_file "dr_trace" ".txt" in
  Sys.remove path;
  Alcotest.check_raises "newline in a tag"
    (Invalid_argument "Trace.save: event 1 (recv 1 0 1 two\\nlines) has a tag containing a newline")
    (fun () -> Trace.save trace path);
  checkb "no file written" false (Sys.file_exists path)

let test_metrics_summary_selection () =
  let m = Metrics.create 3 in
  Metrics.on_query m 0 ~bits:1;
  Metrics.on_query m 0 ~bits:1;
  Metrics.on_query m 2 ~bits:1;
  Metrics.on_send m 1 ~count:1 ~size_bits:100;
  Metrics.on_send m 1 ~count:1 ~size_bits:50;
  let all = Metrics.summarize m in
  checki "max over all" 2 all.Metrics.max_queries;
  checki "msgs" 2 all.Metrics.total_msgs;
  checki "bits" 150 all.Metrics.total_bits;
  checki "max msg" 100 all.Metrics.max_msg_bits;
  let only2 = Metrics.summarize ~select:(fun i -> i = 2) m in
  checki "selected max" 1 only2.Metrics.max_queries;
  checki "selected msgs" 0 only2.Metrics.total_msgs

let test_metrics_peer_snapshot_detached () =
  let m = Metrics.create 3 in
  Metrics.on_send m 0 ~count:1 ~size_bits:8;
  (* [peer] is a snapshot: mutating it must not write back. *)
  let p = Metrics.peer m 0 in
  p.Metrics.msgs_sent <- 99;
  checki "snapshot detached" 1 (Metrics.peer m 0).Metrics.msgs_sent

let test_metrics_max_msg_bits_per_peer () =
  let m = Metrics.create 2 in
  Metrics.on_send m 0 ~count:1 ~size_bits:10;
  Metrics.on_send m 0 ~count:1 ~size_bits:500;
  Metrics.on_send m 0 ~count:1 ~size_bits:20;
  Metrics.on_send m 1 ~count:1 ~size_bits:900;
  checki "peer0 max" 500 (Metrics.peer m 0).Metrics.max_msg_bits;
  checki "summary max excludes deselected" 500
    (Metrics.summarize ~select:(fun i -> i = 0) m).Metrics.max_msg_bits

(* Adding per-process meters (the socket runner's merge) sums every count
   and keeps each peer's largest message. *)
let test_metrics_add () =
  let a = Metrics.create 2 and b = Metrics.create 2 in
  Metrics.on_query a 0 ~bits:3;
  Metrics.on_send a 0 ~count:1 ~size_bits:40;
  Metrics.on_send a 1 ~count:1 ~size_bits:7;
  Metrics.on_query b 0 ~bits:5;
  Metrics.on_send b 0 ~count:1 ~size_bits:10;
  Metrics.on_send b 1 ~count:1 ~size_bits:90;
  Metrics.add a b;
  let p0 = Metrics.peer a 0 and p1 = Metrics.peer a 1 in
  checki "queries summed" 8 p0.Metrics.queries;
  checki "sends summed" 2 p0.Metrics.msgs_sent;
  checki "bits summed" 50 p0.Metrics.bits_sent;
  checki "peer0 max kept" 40 p0.Metrics.max_msg_bits;
  checki "peer1 max taken" 90 p1.Metrics.max_msg_bits;
  checki "addend untouched" 5 (Metrics.peer b 0).Metrics.queries;
  Alcotest.check_raises "size mismatch" (Invalid_argument "Metrics.add: meters of different sizes")
    (fun () -> Metrics.add a (Metrics.create 3))

(* ------------------------------------------------------------------ *)
(* Range queries                                                      *)
(* ------------------------------------------------------------------ *)

(* [query_range] must be indistinguishable from the per-bit loop it
   replaces: same trace records, same observer stream, same metrics and the
   same outputs — under crashes placed before, inside and after the range,
   with and without an arbiter. *)
let range_input = Array.init 40 (fun i -> i mod 3 = 0 || i mod 7 = 2)
let range_query_bit ~peer:_ i = range_input.(i)

type 'r range_run = {
  records : Trace.event list;
  observed : (Sim.obs_kind * int * string * int) list;
  counters : Metrics.peer list;
  outcome : 'r Sim.outcome;
}

let bit_of buf r = Char.code (Bytes.get buf (r lsr 3)) land (1 lsl (r land 7)) <> 0

let range_scenario ?(source = Sim.bit_source range_query_bit) ~use_range ~crash ~arbiter () =
  let trace = Trace.create () in
  let seen = ref [] in
  let observer o = seen := (o.Sim.obs_kind, o.Sim.obs_peer, o.Sim.obs_tag, o.Sim.obs_step) :: !seen in
  let cfg =
    {
      (Sim.default_config ~k:3 ~query_bit:range_query_bit) with
      source;
      crash;
      trace = Some trace;
      observer = Some observer;
      arbiter;
    }
  in
  let read ~pos ~len =
    if use_range then Array.init len (bit_of (S.query_range ~pos ~len))
    else Array.init len (fun r -> S.query (pos + r))
  in
  let outcome =
    S.run cfg (fun i ->
        S.send ((i + 1) mod 3) (Smsg.Ping i);
        let mine = read ~pos:(i * 9) ~len:13 in
        ignore (read ~pos:0 ~len:0);
        S.broadcast (Smsg.Value mine.(0));
        let extra = S.query 39 in
        for _ = 1 to 3 do
          ignore (S.receive ())
        done;
        (Array.to_list mine, extra))
  in
  {
    records = Trace.events trace;
    observed = List.rev !seen;
    counters = List.init 3 (Metrics.peer outcome.Sim.metrics);
    outcome;
  }

(* Crashes before, inside, on the last bit of and after peer 1's 13-bit
   read, each with and without an arbiter. *)
let peer1 spec i = if i = 1 then spec else Sim.Never

let range_cases =
  List.concat_map
    (fun (cname, crash) ->
      List.map
        (fun (aname, arbiter) -> (Printf.sprintf "%s, %s" cname aname, crash, arbiter))
        [ ("timed", None); ("arbiter", Some (fun count -> count / 2)) ])
    [
      ("no crash", fun _ -> Sim.Never);
      ("crash before", peer1 (Sim.After_queries 0));
      ("crash inside", peer1 (Sim.After_queries 5));
      ("crash on the last bit", peer1 (Sim.After_queries 13));
      ("crash after", peer1 (Sim.After_queries 14));
    ]

let check_same_run what a b =
  checkb (what ^ ": trace records") true (a.records = b.records);
  checkb (what ^ ": observer stream") true (a.observed = b.observed);
  checkb (what ^ ": metrics") true (a.counters = b.counters);
  checkb (what ^ ": outputs") true (a.outcome.Sim.outputs = b.outcome.Sim.outputs);
  checkb (what ^ ": status, events, end time") true
    (a.outcome.Sim.status = b.outcome.Sim.status
    && a.outcome.Sim.events = b.outcome.Sim.events
    && a.outcome.Sim.end_time = b.outcome.Sim.end_time)

let test_query_range_matches_loop () =
  List.iter
    (fun (what, crash, arbiter) ->
      check_same_run what
        (range_scenario ~use_range:false ~crash ~arbiter ())
        (range_scenario ~use_range:true ~crash ~arbiter ()))
    range_cases;
  (* The scenarios are not vacuous: peer 1 really dies mid-range. *)
  let inside =
    range_scenario ~use_range:true ~crash:(peer1 (Sim.After_queries 5)) ~arbiter:None ()
  in
  checki "crashed peer charged exactly 5 bits" 5 (List.nth inside.counters 1).Metrics.queries;
  checkb "crashed peer has no output" true (inside.outcome.Sim.outputs.(1) = None)

(* [broadcast] is one effect whose handler runs the sends of the loop it
   replaced: ascending destinations, self skipped. Under jittered latency
   (one draw per send) the two must give the same trace, the same metrics
   (charged once per broadcast, and not at all when no send went out) and
   the same outcome, also when the sender dies partway through. A negative
   or non-finite latency at one destination of peer 0's first round fails
   both the same way: peer 0 catches the error and carries on, so the
   charge of the sends before it shows in the outcome. *)
let broadcast_k = 6

let broadcast_scenario ?bad ~explicit ~crash ~arbiter () =
  let k = broadcast_k in
  let trace = Trace.create () in
  let jitter = Dr_adversary.Latency.jittered (Prng.create 5L) in
  let latency ~src ~dst ~size_bits =
    let d = jitter ~src ~dst ~size_bits in
    match bad with
    | Some (at, value) when src = 0 && dst = at && size_bits = 32 -> value
    | _ -> d
  in
  let cfg =
    { (Sim.default_config ~k ~query_bit) with latency; crash; trace = Some trace; arbiter }
  in
  let bcast self msg =
    if explicit then begin
      for dst = 0 to S.peer_count () - 1 do
        if dst <> self then S.send dst msg
      done
    end
    else S.broadcast msg
  in
  let outcome =
    S.run cfg (fun i ->
        (try bcast i (Smsg.Ping i) with Invalid_argument _ when bad <> None -> ());
        bcast i (Smsg.Value (i mod 2 = 0));
        List.init (2 * (k - 1)) (fun _ -> fst (S.receive ())))
  in
  (Trace.events trace, List.init k (Metrics.peer outcome.Sim.metrics), outcome)

let test_sim_broadcast_is_send_loop () =
  let k = broadcast_k in
  let peer0 spec i = if i = 0 then spec else Sim.Never in
  let cases =
    ("no crash", None, fun _ -> Sim.Never)
    :: List.init (k + 1) (fun j ->
           (Printf.sprintf "After_sends %d" j, None, peer0 (Sim.After_sends j)))
    @ List.concat_map
        (fun at ->
          List.map
            (fun v -> (Printf.sprintf "latency %g at %d" v at, Some (at, v), fun _ -> Sim.Never))
            [ -1.; nan; infinity ])
        (List.init (k - 1) succ)
  in
  let arbiters = [ ("timed", None); ("arbiter", Some (fun count -> count / 2)) ] in
  List.iter
    (fun (cname, bad, crash) ->
      List.iter
        (fun (aname, arbiter) ->
          let lt, lm, lo = broadcast_scenario ?bad ~explicit:true ~crash ~arbiter () in
          let bt, bm, bo = broadcast_scenario ?bad ~explicit:false ~crash ~arbiter () in
          let what = Printf.sprintf "%s, %s" cname aname in
          checkb (what ^ ": trace") true (lt = bt);
          checkb (what ^ ": metrics") true (lm = bm);
          checkb (what ^ ": deliveries") true (lo.Sim.outputs = bo.Sim.outputs);
          checkb (what ^ ": status, events, end time") true
            (lo.Sim.status = bo.Sim.status
            && lo.Sim.events = bo.Sim.events
            && lo.Sim.end_time = bo.Sim.end_time))
        arbiters)
    cases;
  (* Not vacuous: [After_sends (k-2)] stops the first broadcast one short. *)
  let _, counters, outcome =
    broadcast_scenario ~explicit:false ~crash:(peer0 (Sim.After_sends (k - 2))) ~arbiter:None ()
  in
  checki "sender completed k-2 sends" (k - 2) (List.hd counters).Metrics.msgs_sent;
  checkb "sender has no output" true (outcome.Sim.outputs.(0) = None);
  (* A broadcast that sends nothing charges nothing, its size included. *)
  let _, counters, _ =
    broadcast_scenario ~explicit:false ~crash:(peer0 (Sim.After_sends 0)) ~arbiter:None ()
  in
  checki "no send, no largest message" 0 (List.hd counters).Metrics.max_msg_bits;
  let _, counters, _ =
    broadcast_scenario ~bad:(1, -1.) ~explicit:false ~crash:(fun _ -> Sim.Never) ~arbiter:None ()
  in
  let c = List.hd counters in
  checki "a failed first send is not charged" 1 c.Metrics.max_msg_bits;
  checki "only the second round is charged" (k - 1) c.Metrics.msgs_sent;
  let _, counters, _ =
    broadcast_scenario ~bad:(4, nan) ~explicit:false ~crash:(fun _ -> Sim.Never) ~arbiter:None ()
  in
  let c = List.hd counters in
  checki "the sends before a failed one are charged" (3 + (k - 1)) c.Metrics.msgs_sent;
  checki "their bits too" ((3 * 32) + (k - 1)) c.Metrics.bits_sent;
  let negative =
    {
      (Sim.default_config ~k:3 ~query_bit) with
      latency = (fun ~src:_ ~dst:_ ~size_bits:_ -> -1.);
    }
  in
  Alcotest.check_raises "negative latency" (Invalid_argument "Sim.run: negative latency")
    (fun () -> ignore (S.run negative (fun _ -> S.broadcast (Smsg.Ping 1))))

(* The engine's allocation budget, on the deterministic counter: one
   all-to-all round at k=128 under jittered delays, the storm that
   perfbench reports as [engine.minor_words_per_event] on sim-wide. *)
let storm_words_per_event ~wait ~link_rate =
  let k = 128 in
  let cfg =
    {
      (Sim.default_config ~k ~query_bit) with
      latency = Dr_adversary.Latency.jittered (Prng.create 3L);
      link_rate;
    }
  in
  let before = Gc.minor_words () in
  let outcome =
    S.run cfg (fun i ->
        S.broadcast (Smsg.Ping i);
        match wait with
        | `Receive ->
          for _ = 1 to k - 1 do
            ignore (S.receive ())
          done
        | `Await ->
          let heard = ref 0 in
          S.await ~ready:(fun () -> !heard >= k - 1) ~on:(fun _ _ -> incr heard))
  in
  let words = Gc.minor_words () -. before in
  checkb "completed" true (outcome.Sim.status = Sim.Completed);
  checki "events" (k * k) outcome.Sim.events;
  words /. float_of_int outcome.Sim.events

let test_sim_storm_allocation_budget () =
  let per_event = storm_words_per_event ~wait:`Receive ~link_rate:infinity in
  checkb (Printf.sprintf "%.1f minor words per event <= 12" per_event) true (per_event <= 12.)

(* A range read charges each bit without allocating on the minor heap: a
   k=1 peer reads 65,536 bits from a [Data_source] in one [query_range],
   measured on the deterministic minor-heap counter net of an empty run.
   (The adapter's answer, 8 KiB, is allocated in the major heap.) *)
let test_range_read_allocation_free () =
  let bits = 65_536 in
  let x = Dr_source.Bitarray.init bits (fun i -> i mod 3 = 0) in
  let words len =
    let source = Dr_source.Data_source.create ~k:1 x in
    let cfg = Sim.default_config ~k:1 ~query_bit:(Dr_source.Data_source.query_fn source) in
    let before = Gc.minor_words () in
    let outcome = S.run cfg (fun _ -> ignore (S.query_range ~pos:0 ~len)) in
    let words = Gc.minor_words () -. before in
    checki "every bit charged" len (Metrics.peer outcome.Sim.metrics 0).Metrics.queries;
    words
  in
  let empty = words 0 in
  let per_bit = (words bits -. empty) /. float_of_int bits in
  checkb (Printf.sprintf "%.3f minor words per charged bit <= 0.01" per_bit) true (per_bit <= 0.01)

(* A one-bit [query] reads one of [Sim.bit_source]'s two constant bytes,
   not a fresh buffer: a k=1 peer makes 4,096 of them, measured on the
   deterministic minor-heap counter net of an empty run. What is left per
   query is the effect value and the continuation of its [perform] (5
   words; 19 when each query made a buffer and a handler closure). *)
let test_one_bit_query_allocation () =
  let x = Dr_source.Bitarray.init 4096 (fun i -> i mod 3 = 0) in
  let words count =
    let source = Dr_source.Data_source.create ~k:1 x in
    let cfg = Sim.default_config ~k:1 ~query_bit:(Dr_source.Data_source.query_fn source) in
    let ones = ref 0 in
    let before = Gc.minor_words () in
    let outcome =
      S.run cfg (fun _ ->
          for i = 0 to count - 1 do
            if S.query i then incr ones
          done)
    in
    let words = Gc.minor_words () -. before in
    checki "every bit charged" count (Metrics.peer outcome.Sim.metrics 0).Metrics.queries;
    checki "every bit read" ((count + 2) / 3) !ones;
    words
  in
  let empty = words 0 in
  let per_query = (words 4096 -. empty) /. 4096. in
  checkb (Printf.sprintf "%.2f minor words per one-bit query <= 6" per_query) true
    (per_query <= 6.)

(* The block source and the per-bit adapter over the same [Data_source] are
   indistinguishable: the same trace, observer stream, metrics and outputs,
   and the same charge at the source itself, in every crash case of the
   range test (whose scenario includes a [len = 0] read). *)
let test_block_source_matches_bit_adapter () =
  let x = Dr_source.Bitarray.init (Array.length range_input) (Array.get range_input) in
  let run ~block ~crash ~arbiter =
    let data = Dr_source.Data_source.create ~k:3 x in
    let source =
      if block then Dr_source.Data_source.read_range data
      else Sim.bit_source (Dr_source.Data_source.query_fn data)
    in
    let r = range_scenario ~source ~use_range:true ~crash ~arbiter () in
    (r, List.init 3 (Dr_source.Data_source.queries_by data))
  in
  List.iter
    (fun (what, crash, arbiter) ->
      let bit, bit_charged = run ~block:false ~crash ~arbiter in
      let block, block_charged = run ~block:true ~crash ~arbiter in
      check_same_run what bit block;
      Alcotest.(check (list int)) (what ^ ": Data_source.queries_by") bit_charged block_charged)
    range_cases;
  (* A peer already at its [After_queries] budget still reads, and pays
     for, the one bit it dies on. *)
  List.iter
    (fun (j, expected) ->
      let r, charged = run ~block:true ~crash:(peer1 (Sim.After_queries j)) ~arbiter:None in
      let what = Printf.sprintf "After_queries %d" j in
      Alcotest.(check (list int)) (what ^ ": source charge") expected charged;
      checkb (what ^ ": no output") true (r.outcome.Sim.outputs.(1) = None))
    [ (0, [ 14; 1; 14 ]); (5, [ 14; 5; 14 ]) ]

(* A range read reaches the source in one call, however long it is, and
   the peer gets the bytes the source returned, not a copy. *)
let test_range_read_one_source_call () =
  let bits = 65_536 in
  let x = Dr_source.Bitarray.init bits (fun i -> i mod 5 = 1) in
  let data = Dr_source.Data_source.create ~k:1 x in
  let calls = ref 0 and returned = ref Bytes.empty in
  let source ~peer ~pos ~len =
    incr calls;
    returned := Dr_source.Data_source.read_range data ~peer ~pos ~len;
    !returned
  in
  let got = ref Bytes.empty in
  let outcome =
    S.run { (Sim.default_config ~k:1 ~query_bit) with source } (fun _ ->
        got := S.query_range ~pos:0 ~len:bits)
  in
  checki "one source call" 1 !calls;
  checki "every bit charged" bits (Metrics.peer outcome.Sim.metrics 0).Metrics.queries;
  checki "the source charged every bit" bits (Dr_source.Data_source.queries_by data 0);
  checkb "the source's bytes, not a copy" true (!got == !returned);
  checkb "bits read" true (Dr_source.Bitarray.equal x (Dr_source.Bitarray.of_packed bits !got))

(* A read's bytes are exactly [(len + 7) / 8] long, an empty read is
   empty, and a negative length fails the reader. *)
let test_query_range_exact_size () =
  let cfg = Sim.default_config ~k:1 ~query_bit in
  Alcotest.check_raises "negative length" (Invalid_argument "Sim.query_range: negative length")
    (fun () -> ignore (S.run cfg (fun _ -> S.query_range ~pos:0 ~len:(-1))));
  let outcome =
    S.run cfg (fun _ ->
        let four = S.query_range ~pos:0 ~len:4 in
        (four, S.query_range ~pos:0 ~len:0))
  in
  checki "exact-size reads are charged" 4 (Metrics.peer outcome.Sim.metrics 0).Metrics.queries;
  match outcome.Sim.outputs.(0) with
  | Some (_, (four, empty)) ->
    checki "one byte for four bits" 1 (Bytes.length four);
    checki "bits read" 0b1101 (Char.code (Bytes.get four 0));
    checki "an empty read is empty" 0 (Bytes.length empty)
  | None -> Alcotest.fail "the reader did not finish"

(* A serialized link costs no allocation per send: the storm above at 64
   bits per time unit keeps the same budget. *)
let test_serialized_storm_allocation_budget () =
  let per_event = storm_words_per_event ~wait:`Receive ~link_rate:64. in
  checkb (Printf.sprintf "%.1f minor words per event <= 12" per_event) true (per_event <= 12.)

(* Only a finite, non-negative latency is accepted: the sender fails as it
   does on a negative one. *)
let test_sim_non_finite_latency_rejected () =
  List.iter
    (fun delay ->
      let latency ~src:_ ~dst:_ ~size_bits:_ = delay in
      let cfg = { (Sim.default_config ~k:3 ~query_bit) with latency } in
      Alcotest.check_raises (Printf.sprintf "latency %g" delay)
        (Invalid_argument "Sim.run: non-finite latency") (fun () ->
          ignore (S.run cfg (fun _ -> S.broadcast (Smsg.Ping 1)))))
    [ infinity; nan ]

let test_sim_nan_crash_time_rejected () =
  let cfg =
    {
      (Sim.default_config ~k:3 ~query_bit) with
      crash = (fun i -> if i = 1 then Sim.At_time nan else Sim.Never);
    }
  in
  Alcotest.check_raises "At_time nan" (Invalid_argument "Sim.run: NaN crash time") (fun () ->
      ignore (S.run cfg (fun _ -> ())))

(* [infinity] still means unserialized; a rate that is not [> 0.] would give
   negative or NaN transmission times. *)
let test_sim_link_rate_must_be_positive () =
  List.iter
    (fun link_rate ->
      let cfg = { (Sim.default_config ~k:3 ~query_bit) with link_rate } in
      Alcotest.check_raises (Printf.sprintf "link_rate %g" link_rate)
        (Invalid_argument "Sim.run: link_rate must be > 0") (fun () ->
          ignore (S.run cfg (fun _ -> S.broadcast (Smsg.Ping 1)))))
    [ 0.; -1.; nan; neg_infinity ];
  let cfg = { (Sim.default_config ~k:3 ~query_bit) with link_rate = infinity } in
  let outcome = S.run cfg (fun _ -> S.broadcast (Smsg.Ping 1)) in
  checkb "infinity runs" true (outcome.Sim.status = Sim.Completed)

let test_heap_nan_push_rejected () =
  let h = Heap.create () and time = cell 0. in
  List.iter (fun t -> Heap.push h ~time:(cell t) (int_of_float t)) [ 3.; 1.; 2. ];
  Alcotest.check_raises "NaN push" (Invalid_argument "Heap.push: NaN time") (fun () ->
      Heap.push h ~time:(cell nan) 4);
  check Alcotest.int "earliest first" 1 (Heap.pop_min h ~time);
  check Alcotest.(list (pair (float 0.) int)) "the rest unchanged" [ (2., 2); (3., 3) ] (drain h)

(* ------------------------------------------------------------------ *)
(* Tag rendering and observer cost                                    *)
(* ------------------------------------------------------------------ *)

(* A message whose [tag] counts its calls. A message is its sender and,
   for a per-destination send, its destination ([-1] in a broadcast). *)
let tag_renders = ref 0

module Tagged = struct
  type t = int * int

  let size_bits _ = 8
  let label (src, dst) = Printf.sprintf "m(%d,%d)" src dst

  let tag m =
    incr tag_renders;
    label m
end

module T = Sim.Make (Tagged)

(* A send effect renders its message's tag once, and only when a trace or
   an observer reads it: a broadcast once for all its destinations. Every
   recorded and observed tag is [Tagged.label] of its message. *)
let test_tag_rendered_once_per_send () =
  let k = 6 in
  let run ~traced ~observed ~per_dest =
    tag_renders := 0;
    let trace = if traced then Some (Trace.create ()) else None in
    (* (peer, tag) of every observed delivery and of every received
       message, newest first. *)
    let seen = ref [] and received = ref [] in
    let observer =
      if not observed then None
      else
        Some
          (fun (o : Sim.obs) ->
            if o.Sim.obs_kind = Sim.Obs_deliver then
              seen := (o.Sim.obs_peer, o.Sim.obs_tag) :: !seen
            else Alcotest.(check string) "no tag off a delivery" "" o.Sim.obs_tag)
    in
    let cfg =
      {
        (Sim.default_config ~k ~query_bit) with
        latency = Dr_adversary.Latency.jittered (Prng.create 3L);
        trace;
        observer;
      }
    in
    let outcome =
      T.run cfg (fun i ->
          if per_dest then
            for dst = 0 to k - 1 do
              if dst <> i then T.send dst (i, dst)
            done
          else T.broadcast (i, -1);
          for _ = 1 to k - 1 do
            let _, m = T.receive () in
            received := (i, Tagged.label m) :: !received
          done)
    in
    checkb "completed" true (outcome.Sim.status = Sim.Completed);
    let renders = !tag_renders in
    Option.iter
      (fun t ->
        let expected src dst = Tagged.label (src, if per_dest then dst else -1) in
        let tagged =
          List.filter_map
            (function
              | Trace.Sent { src; dst; tag; _ } | Trace.Delivered { src; dst; tag; _ } ->
                Some (tag = expected src dst)
              | _ -> None)
            (Trace.events t)
        in
        checki "sends and deliveries traced" (2 * k * (k - 1)) (List.length tagged);
        checkb "every traced tag is its message's" true (List.for_all Fun.id tagged))
      trace;
    if observed then
      for peer = 0 to k - 1 do
        let of_peer l = List.filter (fun (p, _) -> p = peer) l in
        check
          Alcotest.(list (pair int string))
          "observed tags are the received messages'" (of_peer !received) (of_peer !seen)
      done;
    renders
  in
  checki "observer only" k (run ~traced:false ~observed:true ~per_dest:false);
  checki "trace and observer" k (run ~traced:true ~observed:true ~per_dest:false);
  checki "trace only" k (run ~traced:true ~observed:false ~per_dest:false);
  checki "neither" 0 (run ~traced:false ~observed:false ~per_dest:false);
  checki "per-destination sends, observed" (k * (k - 1))
    (run ~traced:true ~observed:true ~per_dest:true);
  checki "per-destination sends, neither" 0 (run ~traced:false ~observed:false ~per_dest:true)

(* The coverage probe's allocation budget, on the deterministic counter:
   one byz-2cycle execution under a random arbiter, with and without the
   campaign's [Explore.probe]. What observing adds per event is the [obs]
   record, the stored tags and the probe's bookkeeping of new signatures
   (12.8 words; 81.8 when every delivery rendered its tag and the hash
   boxed each [Int64] step). *)
let test_observer_allocation_budget () =
  let module Problem = Dr_core.Problem in
  let module Registry = Dr_core.Registry in
  let entry = Registry.find_exn "byz-2cycle" in
  let inst = Problem.random_instance ~seed:7L ~model:Problem.Byzantine ~k:8 ~n:64 ~t:3 () in
  let run observer =
    let events = ref 0 in
    let random = Explore.random (Prng.create 5L) in
    let arbiter count =
      incr events;
      random count
    in
    let opts = Dr_core.Exec.make_opts ?observer ~arbiter () in
    let before = Gc.minor_words () in
    let report = entry.Registry.run ~opts ~attack:"lie" inst in
    let words = Gc.minor_words () -. before in
    checkb "verified" true report.Problem.ok;
    (words, !events)
  in
  let plain, events = run None in
  let probe = Explore.probe () in
  let observed, events' = run (Some probe.Explore.observer) in
  checki "same schedule" events events';
  checkb "signatures collected" true (probe.Explore.hits () <> []);
  let per_event = (observed -. plain) /. float_of_int events in
  checkb
    (Printf.sprintf "%.1f observer words per event <= 16" per_event)
    true (per_event <= 16.)

(* ------------------------------------------------------------------ *)
(* await                                                              *)
(* ------------------------------------------------------------------ *)

(* [await ~ready ~on] is the loop below, with [on] and [ready] run inside
   the delivering event. The scenario's peers each broadcast a ping, wait
   for k-2 messages, broadcast a value, wait on a predicate that already
   holds, and wait for 2k-4 messages in all; [fail] runs at the end of
   every [on]. *)
let await_k = 5

let receive_loop ~ready ~on =
  while not (ready ()) do
    let src, m = S.receive () in
    on src m
  done

let await_scenario ?(fail = fun ~me:_ ~heard:_ -> ()) ~inline ~crash ~arbiter () =
  let k = await_k in
  let wait = if inline then S.await else receive_loop in
  let trace = Trace.create () in
  let seen = ref [] in
  let observer o = seen := (o.Sim.obs_kind, o.Sim.obs_peer, o.Sim.obs_tag, o.Sim.obs_step) :: !seen in
  let cfg =
    {
      (Sim.default_config ~k ~query_bit) with
      latency = Dr_adversary.Latency.jittered (Prng.create 9L);
      crash;
      trace = Some trace;
      observer = Some observer;
      arbiter;
    }
  in
  let outcome =
    S.run cfg (fun i ->
        let got = ref [] and heard = ref 0 in
        let on src m =
          got := (src, m) :: !got;
          incr heard;
          fail ~me:i ~heard:!heard
        in
        S.broadcast (Smsg.Ping i);
        wait ~ready:(fun () -> !heard >= k - 2) ~on;
        S.broadcast (Smsg.Value (i mod 2 = 0));
        wait ~ready:(fun () -> !heard >= 1) ~on;
        wait ~ready:(fun () -> !heard >= (2 * k) - 4) ~on;
        List.rev !got)
  in
  {
    records = Trace.events trace;
    observed = List.rev !seen;
    counters = List.init k (Metrics.peer outcome.Sim.metrics);
    outcome;
  }

(* Heap order, a mid-pool arbiter, and newest-first, which delivers
   messages to peers that have not started, so they sit in the mailbox
   when the first [await] runs. *)
let await_modes =
  [
    ("timed", None);
    ("arbiter", Some (fun count -> count / 2));
    ("newest first", Some (fun count -> count - 1));
  ]

let test_await_is_receive_loop () =
  let k = await_k in
  let cases =
    List.map (fun (aname, arbiter) -> ("no crash, " ^ aname, (fun _ -> Sim.Never), arbiter)) await_modes
    @ List.map
        (fun (aname, arbiter) ->
          ("After_sends (k-1), " ^ aname, peer1 (Sim.After_sends (k - 1)), arbiter))
        await_modes
    @ [ ("At_time while awaiting, timed", (fun i -> if i = 2 then Sim.At_time 0.9 else Sim.Never), None) ]
  in
  let runs =
    List.map
      (fun (what, crash, arbiter) ->
        let loop = await_scenario ~inline:false ~crash ~arbiter () in
        check_same_run what loop (await_scenario ~inline:true ~crash ~arbiter ());
        (what, loop))
      cases
  in
  let run what = List.assoc what runs in
  let sent r p = (List.nth r.counters p).Metrics.msgs_sent in
  (* Not vacuous. Newest-first leaves a message in some peer's mailbox
     before it starts. *)
  let early =
    List.exists
      (fun (kind, peer, _, step) ->
        kind = Sim.Obs_deliver
        && List.exists
             (fun (kind', peer', _, step') -> kind' = Sim.Obs_start && peer' = peer && step' > step)
             (run "no crash, newest first").observed)
      (run "no crash, newest first").observed
  in
  checkb "a delivery precedes its peer's start" true early;
  List.iter
    (fun (what, _, _) ->
      let r = run what in
      if String.starts_with ~prefix:"no crash" what then
        checkb (what ^ ": completed") true (r.outcome.Sim.status = Sim.Completed)
      else if String.starts_with ~prefix:"After_sends" what then begin
        (* Peer 1 dies on the first send after its first wait's [ready]. *)
        checki (what ^ ": peer 1's sends") (k - 1) (sent r 1);
        checkb (what ^ ": peer 1 has no output") true (r.outcome.Sim.outputs.(1) = None)
      end
      else begin
        (* Peer 2 sent both broadcasts, so the crash found it waiting. *)
        checki (what ^ ": peer 2's sends") (2 * (k - 1)) (sent r 2);
        checkb (what ^ ": peer 2 has no output") true (r.outcome.Sim.outputs.(2) = None)
      end)
    cases

(* [die ()] in [on] ends the peer as it would from the loop body; another
   exception leaves [run] as it would from the body; and a transport call
   in [on], which the loop would make, fails loudly instead. Each in heap
   mode (called from a delivery) and newest-first (from the mailbox). *)
let test_await_failure_routing () =
  List.iter
    (fun (aname, arbiter) ->
      let die ~me ~heard = if me = 1 && heard = 2 then S.die () in
      let run ~inline = await_scenario ~fail:die ~inline ~crash:(fun _ -> Sim.Never) ~arbiter () in
      let loop = run ~inline:false in
      check_same_run ("die in on, " ^ aname) loop (run ~inline:true);
      checkb (aname ^ ": peer 1 has no output") true (loop.outcome.Sim.outputs.(1) = None);
      checkb (aname ^ ": the others finish") true (loop.outcome.Sim.outputs.(0) <> None);
      let boom ~me ~heard = if me = 1 && heard = 2 then failwith "boom" in
      List.iter
        (fun inline ->
          Alcotest.check_raises
            (Printf.sprintf "exception in on, %s, inline %b" aname inline)
            (Failure "boom") (fun () ->
              ignore (await_scenario ~fail:boom ~inline ~crash:(fun _ -> Sim.Never) ~arbiter ())))
        [ false; true ];
      let reply ~me ~heard = if me = 1 && heard = 1 then S.send 0 (Smsg.Ping 9) in
      let loop = await_scenario ~fail:reply ~inline:false ~crash:(fun _ -> Sim.Never) ~arbiter () in
      checki (aname ^ ": the loop body's send is made") (2 * (await_k - 1) + 1)
        (List.nth loop.counters 1).Metrics.msgs_sent;
      let raised =
        match await_scenario ~fail:reply ~inline:true ~crash:(fun _ -> Sim.Never) ~arbiter () with
        | _ -> false
        | exception Effect.Unhandled _ -> true
      in
      checkb (aname ^ ": a send in on raises Effect.Unhandled") true raised)
    [ List.nth await_modes 0; List.nth await_modes 2 ]

(* The storm of the allocation budget above, its peers waiting with
   [await]: a delivery to a waiting peer allocates no continuation, tuple
   or wait block. *)
let test_await_storm_allocation_budget () =
  let per_event = storm_words_per_event ~wait:`Await ~link_rate:infinity in
  checkb (Printf.sprintf "%.2f minor words per event <= 5" per_event) true (per_event <= 5.)

(* A warm run reuses the last run's event queue and slot pool, measured on
   the deterministic counter of words allocated straight into the major
   heap (major minus promoted) by one k=128 jittered [await] round, the
   shape of a sim-wide report cycle. A cold run is the first in a fresh
   domain, whose domain-local store is empty. *)
let direct_major_words k =
  let cfg =
    {
      (Sim.default_config ~k ~query_bit) with
      latency = Dr_adversary.Latency.jittered (Prng.create 3L);
    }
  in
  let _, promoted0, major0 = Gc.counters () in
  let outcome =
    S.run cfg (fun i ->
        S.broadcast (Smsg.Ping i);
        let heard = ref 0 in
        S.await ~ready:(fun () -> !heard >= k - 1) ~on:(fun _ _ -> incr heard))
  in
  let _, promoted1, major1 = Gc.counters () in
  checkb "completed" true (outcome.Sim.status = Sim.Completed);
  major1 -. major0 -. (promoted1 -. promoted0)

let test_warm_run_allocation_gate () =
  let in_fresh_domain f = Domain.join (Domain.spawn f) in
  let cold_big = in_fresh_domain (fun () -> direct_major_words 128)
  and cold_small = in_fresh_domain (fun () -> direct_major_words 8) in
  let warm_big, warm_small =
    in_fresh_domain (fun () ->
        ignore (direct_major_words 128);
        let big = direct_major_words 128 in
        (big, direct_major_words 8))
  in
  checkb
    (Printf.sprintf "warm k=128: %.0f direct major words <= 1/4 of cold %.0f" warm_big cold_big)
    true
    (warm_big <= cold_big /. 4.);
  checkb
    (Printf.sprintf "warm k=8 after k=128: %.0f direct major words <= cold %.0f" warm_small
       cold_small)
    true (warm_small <= cold_small)

(* ------------------------------------------------------------------ *)
(* Link serialization                                                  *)
(* ------------------------------------------------------------------ *)

module Lmsg = struct
  type t = Big of int | Small

  let size_bits = function Big _ -> 1000 | Small -> 10
  let tag = function Big _ -> "big" | Small -> "small"
end

module L = Sim.Make (Lmsg)

let test_link_serialization_fifo () =
  (* A big message followed by a small one on the same link: the small one
     queues behind it (FIFO), arriving at transmission(big) +
     transmission(small) + propagation. *)
  let trace = Trace.create () in
  let cfg =
    {
      (Sim.default_config ~k:2 ~query_bit:(fun ~peer:_ _ -> false)) with
      link_rate = 100.;
      latency = (fun ~src:_ ~dst:_ ~size_bits:_ -> 0.5);
      trace = Some trace;
    }
  in
  let _ =
    L.run cfg (fun i ->
        if i = 0 then begin
          L.send 1 (Lmsg.Big 1);
          L.send 1 Lmsg.Small
        end
        else begin
          ignore (L.receive ());
          ignore (L.receive ())
        end)
  in
  let times =
    List.filter_map
      (function Trace.Delivered { time; dst = 1; _ } -> Some time | _ -> None)
      (Trace.events trace)
  in
  (* big: 1000/100 + 0.5 = 10.5; small: 10 + 0.1 + 0.5 = 10.6 *)
  Alcotest.(check (list (float 0.001))) "big then queued small" [ 10.5; 10.6 ] times

let test_link_serialization_links_independent () =
  (* Two different destinations do not queue behind each other. *)
  let cfg =
    {
      (Sim.default_config ~k:3 ~query_bit:(fun ~peer:_ _ -> false)) with
      link_rate = 100.;
      latency = (fun ~src:_ ~dst:_ ~size_bits:_ -> 0.);
    }
  in
  let outcome =
    L.run cfg (fun i ->
        if i = 0 then begin
          L.send 1 (Lmsg.Big 1);
          L.send 2 (Lmsg.Big 2)
        end
        else ignore (L.receive ()))
  in
  (match outcome.Sim.outputs.(1) with
  | Some (t, ()) -> Alcotest.(check (float 0.001)) "dst 1 at 10" 10. t
  | None -> Alcotest.fail "no output 1");
  match outcome.Sim.outputs.(2) with
  | Some (t, ()) -> Alcotest.(check (float 0.001)) "dst 2 also at 10 (parallel links)" 10. t
  | None -> Alcotest.fail "no output 2"

let test_link_rate_infinite_is_default () =
  let cfg = Sim.default_config ~k:2 ~query_bit:(fun ~peer:_ _ -> false) in
  let outcome =
    L.run cfg (fun i ->
        if i = 0 then begin
          L.send 1 (Lmsg.Big 1);
          L.send 1 (Lmsg.Big 2)
        end
        else begin
          ignore (L.receive ());
          ignore (L.receive ())
        end)
  in
  match outcome.Sim.outputs.(1) with
  | Some (t, ()) -> Alcotest.(check (float 0.001)) "no serialization" 1. t
  | None -> Alcotest.fail "no output"

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seed sensitivity", `Quick, test_prng_seed_sensitivity);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng int bound=1", `Quick, test_prng_int_one);
    ("prng float bounds", `Quick, test_prng_float_bounds);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng split deterministic", `Quick, test_prng_split_deterministic);
    ("prng roughly uniform", `Quick, test_prng_int_roughly_uniform);
    ("prng bool balance", `Quick, test_prng_bool_balance);
    ("prng shuffle is a permutation", `Quick, test_prng_shuffle_permutation);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo on ties", `Quick, test_heap_fifo_ties);
    ("heap interleaved ops", `Quick, test_heap_interleaved);
    ("heap clear", `Quick, test_heap_clear);
    ("heap matches sort", `Quick, test_heap_random_order_matches_sort);
    ("heap pop_min matches pop", `Quick, test_heap_pop_min_matches_pop);
    ("heap grow preserves order", `Quick, test_heap_grow_preserves_order);
    ("heap reuse after clear", `Quick, test_heap_reuse_after_clear);
    ("heap empty accessors raise", `Quick, test_heap_empty_accessors_raise);
    ("ring fifo", `Quick, test_ring_fifo);
    ("ring wraps and grows", `Quick, test_ring_wraps_and_grows);
    ("ring clear and reuse", `Quick, test_ring_clear_and_reuse);
    ("sim ping-pong", `Quick, test_sim_pingpong);
    ("sim query", `Quick, test_sim_query);
    ("sim query metrics", `Quick, test_sim_query_metrics);
    ("sim crash at time", `Quick, test_sim_crash_at_time);
    ("sim partial broadcast crash", `Quick, test_sim_after_sends_partial_broadcast);
    ("sim after_sends 0 silences", `Quick, test_sim_after_sends_zero_is_silent);
    ("sim latency reorders", `Quick, test_sim_latency_order);
    ("sim mailbox buffers", `Quick, test_sim_mailbox_buffers);
    ("sim start times", `Quick, test_sim_start_times);
    ("sim deterministic replay", `Quick, test_sim_deterministic_replay);
    ("sim rng schedule-isolated", `Quick, test_sim_rng_isolated_from_schedule);
    ("sim trace records", `Quick, test_sim_trace_records);
    ("sim query latency", `Quick, test_sim_query_latency);
    ("sim die", `Quick, test_sim_die);
    ("sim event limit", `Quick, test_sim_event_limit);
    ("sim send to self", `Quick, test_sim_send_to_self);
    ("sim bad destination", `Quick, test_sim_send_bad_destination);
    ("sim negative latency", `Quick, test_sim_negative_latency_rejected);
    ("sim crash during query wait", `Quick, test_sim_crash_during_query_wait);
    ("sim crash before start", `Quick, test_sim_crash_before_start);
    ("sim after-queries crash", `Quick, test_sim_after_queries_crash);
    ("sim arbiter pool order", `Quick, test_sim_arbiter_pool_order);
    ("trace stats matrices", `Quick, test_trace_stats_matrices);
    ("trace save/load roundtrip", `Quick, test_trace_save_load_roundtrip);
    ("trace load rejects garbage", `Quick, test_trace_load_rejects_garbage);
    ("metrics summary selection", `Quick, test_metrics_summary_selection);
    ("metrics peer snapshot detached", `Quick, test_metrics_peer_snapshot_detached);
    ("metrics per-peer max msg", `Quick, test_metrics_max_msg_bits_per_peer);
    ("query_range is the per-bit loop", `Quick, test_query_range_matches_loop);
    ("broadcast is the send loop", `Quick, test_sim_broadcast_is_send_loop);
    ("storm allocation budget", `Quick, test_sim_storm_allocation_budget);
    ("prng golden stream", `Quick, test_prng_golden_stream);
    ("heap pop_min allocates nothing", `Quick, test_heap_pop_min_allocation_free);
    ("range read allocates nothing per charged bit", `Quick, test_range_read_allocation_free);
    ("block source matches the bit adapter", `Quick, test_block_source_matches_bit_adapter);
    ("range read calls the source once", `Quick, test_range_read_one_source_call);
    ("query_range exact size and bad len", `Quick, test_query_range_exact_size);
    ("metrics add sums counts and maxes the largest message", `Quick, test_metrics_add);
    ("one-bit query allocation budget", `Quick, test_one_bit_query_allocation);
    ("serialized storm allocation budget", `Quick, test_serialized_storm_allocation_budget);
    ("sim non-finite latency", `Quick, test_sim_non_finite_latency_rejected);
    ("sim NaN crash time", `Quick, test_sim_nan_crash_time_rejected);
    ("sim link_rate must be > 0", `Quick, test_sim_link_rate_must_be_positive);
    ("heap NaN push raises", `Quick, test_heap_nan_push_rejected);
    ("tag rendered once per send", `Quick, test_tag_rendered_once_per_send);
    ("observer allocation budget", `Quick, test_observer_allocation_budget);
    ("trace save rejects a tag with a newline", `Quick, test_trace_save_rejects_newline_tag);
    ("await is the receive loop", `Quick, test_await_is_receive_loop);
    ("await failure routing", `Quick, test_await_failure_routing);
    ("await storm allocation budget", `Quick, test_await_storm_allocation_budget);
    ("warm run allocation gate", `Quick, test_warm_run_allocation_gate);
    ("engine: link FIFO serialization", `Quick, test_link_serialization_fifo);
    ("engine: links independent", `Quick, test_link_serialization_links_independent);
    ("engine: infinite rate default", `Quick, test_link_rate_infinite_is_default);
  ]
