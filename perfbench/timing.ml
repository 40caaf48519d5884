(* Wall-clock helpers: a monotonic nanosecond clock, order statistics, and
   a batch-calibrated timer for the per-layer unit costs. *)

let now_ns () = Monotonic_clock.now ()
let since_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let since_s t0 = since_ns t0 /. 1e9

(* Linear-interpolated quantile, [q] in [0, 1]; [nan] on an empty list. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Time of one call of [f], in nanoseconds, with its result. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (since_ns t0, r)

(* Writing one byte per cache line of a buffer twice the size of a core's
   L2 leaves the reference's data out of the private caches, whatever ran
   before: a unit-cost probe's tiny working set or a Download's large one.
   The buffer lives outside the OCaml heap, so it does not count in
   [heap_peak_mb]. *)
let evict_buffer = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (4 lsl 20)

let evict () =
  let i = ref 0 in
  while !i < Bigarray.Array1.dim evict_buffer do
    Bigarray.Array1.unsafe_set evict_buffer !i (Char.unsafe_chr (!i land 0xff));
    i := !i + 64
  done

(* The reference's working set: 2 MiB outside the OCaml heap, allocated
   once at start-up. *)
let reference_region = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 18)

(* A fixed piece of work that no library change can touch: three passes
   that write every word of [reference_region] and, every 16th word, read a
   word from a scattered 32 KiB block back into an accumulator. It allocates
   nothing and touches only its own memory, and every timing evicts first,
   so its time depends on the host's speed at the moment — core and memory
   system both, as a Download's does — and not on what ran before; see the
   host-speed section of perfbench.ml. Every timing the benchmark reports
   is scaled to the speed at which it takes [reference_ms]. *)
let reference () =
  let r = reference_region in
  let words = Bigarray.Array1.dim r in
  let acc = ref 0 in
  for pass = 1 to 3 do
    for i = 0 to words - 1 do
      Bigarray.Array1.unsafe_set r i (i + pass + (!acc land 7));
      if i land 15 = 15 then begin
        let block = (i * 7919) land (words - 1) land lnot 4095 in
        acc := !acc + Bigarray.Array1.unsafe_get r (block lor (i land 4095))
      end
    done
  done;
  ignore (Sys.opaque_identity !acc)

(* The reference reads 2.1-4.3 ms between Downloads on the shared 2-vCPU
   Xeon VM it was tuned on, as that host's speed drifts; figures at this
   speed stay near raw time. *)
let reference_ms = 3.0

(* One timed reference run, from cold private caches. *)
let reference_time_ms () =
  evict ();
  fst (timed reference) /. 1e6

(* The factor that scales a time measured just now to reference speed. *)
let scale_now () = reference_ms /. median (List.init 3 (fun _ -> reference_time_ms ()))

(* [per_unit_ns work] repeats [work ()] — which returns how many units it
   performed — until [probe_budget_s] seconds and at least five samples
   are spent, and returns the median nanoseconds per unit across samples,
   at reference speed: the mean of the scales taken just before and just
   after the batches, which stay undisturbed. Batches are sized to last at
   least a millisecond so clock reads vanish. *)
let probe_budget_s = 0.2

let per_unit_ns work =
  let batch reps =
    let t0 = now_ns () in
    let units = ref 0 in
    for _ = 1 to reps do
      units := !units + work ()
    done;
    (since_ns t0, !units)
  in
  let rec calibrate reps =
    let dt, _ = batch reps in
    if dt >= 1e6 || reps >= 1 lsl 20 then reps else calibrate (2 * reps)
  in
  let reps = calibrate 1 in
  let before = scale_now () in
  let t0 = now_ns () in
  let samples = ref [] and taken = ref 0 in
  while since_s t0 < probe_budget_s || !taken < 5 do
    let dt, units = batch reps in
    samples := (dt /. float_of_int (max 1 units)) :: !samples;
    incr taken
  done;
  median !samples *. (before +. scale_now ()) /. 2.
