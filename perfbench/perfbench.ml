(* The layered Download benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --self-test

   One process, one domain, one closed-loop client: each Download starts
   when the previous one has returned and been verified. Untraced runs
   report the end-to-end metrics; traced runs report the per-layer metrics
   (unit costs timed from outside the library, counts gathered through the
   library's public hooks) and an attribution table. Every metric is printed
   as "name value unit"; the last line is one JSON object. The exit code is
   non-zero when any Download fails verification. See README.md. *)

open Workloads

let min_downloads = 100

(* The first inputs of the pool are the deterministic count sample of a
   traced run and of the self-test. *)
let count_sample = 8

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

(* The loop's clock: wall time less what set-up repetitions and reference
   samples took between Downloads (see [loop]), in nanoseconds. *)
let paused_ns = ref 0.
let clock () = Int64.to_float (Timing.now_ns ()) -. !paused_ns

(* One timed Download as the loop saw it; [finished] is [clock ()] when it
   returned. *)
type sample = { ms : float; finished : float; ok : bool; q_max : int; msgs : int }

let sample_of ns ok (r : Problem.report) =
  {
    ms = ns /. 1e6;
    finished = clock ();
    ok;
    q_max = r.Problem.q_max;
    msgs = r.Problem.msgs;
  }

let ms_of samples = List.map (fun s -> s.ms) samples
let failures samples = List.length (List.filter (fun s -> not s.ok) samples)
let mean_of f xs = Timing.mean (List.map (fun x -> float_of_int (f x)) xs)

(* ------------------------------------------------------------------ *)
(* Host speed                                                         *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts, for stretches from seconds to many
   minutes, and Downloads slow down with it. So the loop times
   [Timing.reference] every 100 ms between Downloads, and scales every
   end-to-end timing by the host's speed around it: time x
   [Timing.reference_ms] / (median reference time within half a second).
   The reference evicts the private caches first and allocates nothing, so
   what the Downloads leave behind does not change it. The figures
   reported are at the speed where the reference takes
   [Timing.reference_ms]; raw figures are printed beside them. *)
let reference_every_ns = 100e6

(* (clock, reference ms), newest first. *)
let references = ref []

let sample_reference () =
  let t0 = Timing.now_ns () in
  let ms = Timing.reference_time_ms () in
  references := (clock (), ms) :: !references;
  paused_ns := !paused_ns +. Timing.since_ns t0

let reference_due () =
  match !references with
  | (t, _) :: _ when clock () -. t < reference_every_ns -> ()
  | _ -> sample_reference ()

(* The scale at clock time [t], from the references taken so far: the
   median of those within half a second of [t], else the first one after
   [t] (or the last one). *)
let host_scale () =
  let refs = Array.of_list (List.rev !references) in
  let times = Array.map fst refs in
  let first_at_least x =
    let lo = ref 0 and hi = ref (Array.length times) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if times.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  fun t ->
    let lo = first_at_least (t -. 5e8) and hi = first_at_least (t +. 5e8) in
    let lo, hi =
      if hi > lo then (lo, hi)
      else
        let nearest = max 0 (min lo (Array.length refs - 1)) in
        (nearest, nearest + 1)
    in
    let local = Array.to_list (Array.map snd (Array.sub refs lo (hi - lo))) in
    Timing.reference_ms /. Timing.median local

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

(* Set-up generates the workload's inputs and runs one warm-up unit of work
   (a Download, or a campaign), so code paths and the heap are warm before
   the loop. It is timed on its own, so work moved out of the timed loop
   into set-up shows. Returns the input pool and whether the warm-up
   verified. *)
let setup w ~seed =
  match w.kind with
  | Sim_download ->
    let pool = inputs ~seed w 32 in
    (pool, verified w pool.(0).inst (run_untraced w pool.(0)))
  | Net_download ->
    let pool = inputs ~seed w 16 in
    (pool, net_verified w pool.(0) (run_net w pool.(0)))
  | Campaign ->
    let target = campaign_target w ~traced:false ~on_exec:(fun _ _ _ -> ()) in
    let c = Check.campaign ~budget:check_budget ~seed:(campaign_seed ~seed 0) target in
    (inputs ~seed w count_sample, c.Check.failures = [])

(* ------------------------------------------------------------------ *)
(* Closed loops                                                       *)
(* ------------------------------------------------------------------ *)

let sim_download w pool i =
  let input = pool.(i mod Array.length pool) in
  let ns, r = Timing.timed (fun () -> run_untraced w input) in
  sample_of ns (verified w input.inst r) r

let net_download w pool i =
  let input = pool.(i mod Array.length pool) in
  let ns, ((r, _) as res) = Timing.timed (fun () -> run_net w input) in
  sample_of ns (net_verified w input res) r

(* The closed loop: units of work back to back until [seconds] have passed
   and at least [min] Downloads ran. [step i] performs the i-th unit (one
   Download, or one campaign) and returns its Downloads in order. Between
   units it samples the host's speed every [reference_every_ns], and runs
   [tick] [ticks] times, evenly spread; both are kept out of the samples'
   clock. Returns the samples and the wall time. *)
let loop ~ticks ~tick ~seconds ~min step =
  let samples = ref [] and i = ref 0 and count = ref 0 and next = ref 1 in
  let every = seconds /. float_of_int (ticks + 1) in
  let t0 = Timing.now_ns () in
  while Timing.since_s t0 < seconds || !count < min do
    if !next <= ticks && Timing.since_s t0 >= float_of_int !next *. every then begin
      let ns, () = Timing.timed tick in
      paused_ns := !paused_ns +. ns;
      incr next
    end;
    let s = step !i in
    reference_due ();
    count := !count + List.length s;
    samples := List.rev_append s !samples;
    incr i
  done;
  (List.rev !samples, Timing.since_s t0)

(* One campaign of [budget] executions; every execution is one Download
   under the arbiter, timed and verified on its own. A shrunk violation also
   fails the campaign's last sample. *)
let run_campaign w ~seed ~budget ~traced i =
  let samples = ref [] in
  let on_exec inst ns r = samples := sample_of ns (verified w inst r) r :: !samples in
  let target = campaign_target w ~traced ~on_exec in
  let c = Check.campaign ~budget ~seed:(campaign_seed ~seed i) target in
  let samples =
    match (c.Check.failures, !samples) with
    | [], s | _, ([] as s) -> s
    | _ :: _, last :: rest -> { last with ok = false } :: rest
  in
  List.rev samples

(* ------------------------------------------------------------------ *)
(* Untraced: end-to-end metrics                                       *)
(* ------------------------------------------------------------------ *)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set-up runs once before the loop and seven more times spread through it,
   each right after a reference sample; [setup_s] is the median of the
   eight, scaled like the Downloads. *)
let setup_reps = 8

let end_to_end w ~seed ~seconds =
  let timed_setup () =
    sample_reference ();
    let at = clock () in
    let ns, result = Timing.timed (fun () -> setup w ~seed) in
    ((at, ns), result)
  in
  let first, (pool, warm_ok) = timed_setup () in
  (* Read before the loop, whose sample bookkeeping grows with run length:
     the peak of set-up's inputs plus its warm-up Download. *)
  let heap_mb = heap_peak_mb () in
  let setups = ref [ first ] in
  let tick () = setups := fst (timed_setup ()) :: !setups in
  let step =
    match w.kind with
    | Sim_download -> fun i -> [ sim_download w pool i ]
    | Net_download -> fun i -> [ net_download w pool i ]
    | Campaign -> fun i -> run_campaign w ~seed ~budget:check_budget ~traced:false (i + 1)
  in
  let samples, wall = loop ~ticks:(setup_reps - 1) ~tick ~seconds ~min:min_downloads step in
  let scale = host_scale () in
  let setup_s = Timing.median (List.map (fun (at, ns) -> ns *. scale at) !setups) /. 1e9 in
  let attempted = List.length samples + 1 in
  let failed = failures samples + if warm_ok then 0 else 1 in
  let ms = List.map (fun s -> s.ms *. scale s.finished) samples in
  (* Scaled wall time: each gap between completions — a Download plus any
     campaign bookkeeping before it — at the speed around it. *)
  let scaled_wall, _ =
    List.fold_left
      (fun (total, prev) s ->
        let gap = match prev with Some p -> s.finished -. p | None -> s.ms *. 1e6 in
        (total +. (gap *. scale s.finished /. 1e9), Some s.finished))
      (0., None) samples
  in
  let n = List.length samples in
  let metrics =
    [
      m "download_ms_p50" (Timing.quantile ms 0.5) "ms";
      m "download_ms_p90" (Timing.quantile ms 0.9) "ms";
      m "downloads_per_s" (float_of_int (n - failures samples) /. scaled_wall) "1/s";
      m "setup_s" setup_s "s";
      m "verified_frac" (float_of_int (attempted - failed) /. float_of_int attempted) "ratio";
      m "q_max_mean" (mean_of (fun s -> s.q_max) samples) "bits";
      m "msgs_per_download" (mean_of (fun s -> s.msgs) samples) "count";
      m "heap_peak_mb" heap_mb "MB";
    ]
  in
  Printf.printf
    "# %s: %d Downloads in %.2f s, %d failed verification (failed_frac %.4f); raw p50 %.4f ms, \
     host scale %.3f (reference median %.4f ms)\n"
    w.name attempted wall failed
    (float_of_int failed /. float_of_int attempted)
    (Timing.median (ms_of samples))
    (Timing.median (List.map (fun s -> scale s.finished) samples))
    (Timing.median (List.map snd !references));
  (attempted, failed, metrics)

(* ------------------------------------------------------------------ *)
(* Traced: counts                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-Download means over the count sample — deterministic given the seed
   (the self-test holds them to that). *)
type counts = {
  downloads : int;
  events : float;
  deliveries : float;
  queries : float;
  receives : float;
  msgs : float;
  bits : float;
  q_max : float;
  q_total : float;
  minor_words : float;
  wire_bytes_per_msg : float;
  model_bytes_per_msg : float;
  digest : int;  (** hash of the first input's array — differs across seeds *)
}

let per ~n total = float_of_int total /. float_of_int (max 1 n)

(* Traced runs of the count sample. Each traced report must equal the
   untraced report of the same input: the counting hooks may not perturb
   the schedule. Returns the counts and the number of mismatches. *)
let sim_counts w pool =
  let sample = Array.sub pool 0 (min count_sample (Array.length pool)) in
  let n = Array.length sample in
  let traced = traced_runner w ~sample:sample.(0) in
  let mismatches = ref 0 in
  let msgs = ref 0 and bits = ref 0 and q_max = ref 0 and q_total = ref 0 in
  let minor = ref 0. in
  reset_tally ();
  Array.iter
    (fun input ->
      let before = Gc.minor_words () in
      let u = run_untraced w input in
      minor := !minor +. (Gc.minor_words () -. before);
      let t = traced input in
      if u <> t || not (verified w input.inst t) then incr mismatches;
      msgs := !msgs + t.Problem.msgs;
      bits := !bits + t.Problem.bits_sent;
      q_max := !q_max + t.Problem.q_max;
      q_total := !q_total + t.Problem.q_total)
    sample;
  let events = tally.events and deliveries = tally.deliveries and queries = tally.queries in
  let receives = Counting.counts.Counting.receives in
  (* Wire pricing Marshals every send, so it gets its own untimed pass. *)
  Counting.reset ();
  Counting.counts.Counting.price_wire <- true;
  Array.iter (fun input -> ignore (traced input)) sample;
  Counting.counts.Counting.price_wire <- false;
  let c = Counting.counts in
  ( {
      downloads = n;
      events = per ~n events;
      deliveries = per ~n deliveries;
      queries = per ~n queries;
      receives = per ~n receives;
      msgs = per ~n !msgs;
      bits = per ~n !bits;
      q_max = per ~n !q_max;
      q_total = per ~n !q_total;
      minor_words = !minor /. float_of_int n;
      wire_bytes_per_msg = per ~n:c.Counting.wire_msgs c.Counting.wire_bytes;
      model_bytes_per_msg = per ~n:c.Counting.wire_msgs c.Counting.model_bytes;
      digest = Hashtbl.hash (Dr_source.Bitarray.to_string sample.(0).inst.Problem.x);
    },
    !mismatches )

(* One traced campaign; per-execution means, over the simulator twin's
   counts for what a campaign does not exercise (wire pricing, bits). Its
   schedule must match an untraced campaign with the same seed, execution
   for execution. *)
let campaign_counts w ~seed ~budget ~twin =
  let before = Gc.minor_words () in
  let untraced = run_campaign w ~seed ~budget ~traced:false 0 in
  let minor = Gc.minor_words () -. before in
  reset_tally ();
  let traced = run_campaign w ~seed ~budget ~traced:true 0 in
  let n = List.length traced in
  let strip s = (s.ok, s.q_max, s.msgs) in
  let mismatches =
    (if List.map strip untraced <> List.map strip traced then 1 else 0) + failures traced
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 traced in
  ( {
      twin with
      downloads = n;
      events = per ~n tally.events;
      deliveries = per ~n tally.deliveries;
      queries = per ~n tally.queries;
      msgs = per ~n (sum (fun s -> s.msgs));
      q_max = per ~n (sum (fun s -> s.q_max));
      minor_words = minor /. float_of_int (max 1 n);
      digest = Hashtbl.hash (twin.digest, tally.events);
    },
    mismatches )

(* ------------------------------------------------------------------ *)
(* Traced: timing, layer probes, attribution                          *)
(* ------------------------------------------------------------------ *)

(* Untraced and traced Downloads of the same inputs, alternated, for
   [seconds], scaled to reference speed like the end-to-end loop: the
   traced median is what the attribution is held against, and the ratio of
   the two medians is the tracing overhead. A net Download cannot be
   instrumented from outside, so on net-loopback both halves are the same
   call and the overhead reads as noise around zero. *)
let timing_pass w ~seed ~pool ~seconds =
  let untraced = ref [] and traced = ref [] in
  let t0 = Timing.now_ns () in
  let i = ref 0 in
  let enough () = Timing.since_s t0 >= seconds && List.length !traced >= 20 in
  (match w.kind with
  | Sim_download ->
    let run_traced = traced_runner w ~sample:pool.(0) in
    while not (enough ()) do
      let input = pool.(!i mod Array.length pool) in
      let u = sim_download w pool !i in
      let ns, r = Timing.timed (fun () -> run_traced input) in
      untraced := u :: !untraced;
      traced := sample_of ns (verified w input.inst r) r :: !traced;
      reference_due ();
      incr i
    done
  | Net_download ->
    while not (enough ()) do
      untraced := net_download w pool !i :: !untraced;
      traced := net_download w pool !i :: !traced;
      reference_due ();
      incr i
    done
  | Campaign ->
    while not (enough ()) do
      incr i;
      untraced := run_campaign w ~seed ~budget:check_budget ~traced:false !i @ !untraced;
      traced := run_campaign w ~seed ~budget:check_budget ~traced:true !i @ !traced;
      reference_due ()
    done);
  let scale = host_scale () in
  let scaled = List.map (fun s -> { s with ms = s.ms *. scale s.finished }) in
  (scaled !untraced, scaled !traced)

type row = { layer : string; unit_ns : float; per_download : float }

(* The attribution table: each layer's unit cost, its count per Download,
   and their product. Counts the library does not expose are derived from
   the protocol's structure: every honest peer adds and checks once per
   report it receives plus once per cycle for its own report, resolves s-1
   segments (byz-2cycle) or two children per later cycle (byz-multicycle),
   and writes each segment into its output once. The observer and metered
   source of the traced run are a row of their own: the measured gap
   between traced and untraced medians. *)
let attribution w (c : counts) ~unit ~hooks_ns =
  let segs, cycles = plan w in
  let multicycle = w.shape.protocol = "byz-multicycle" in
  let honest = float_of_int (w.shape.k - w.shape.t) in
  let later_cycles = float_of_int (cycles - 1) in
  let resolves =
    if cycles = 1 then 0.
    else if multicycle then honest *. 2. *. later_cycles
    else honest *. float_of_int (segs - 1)
  in
  let blits =
    if cycles = 1 then 0. else if multicycle then resolves else honest *. float_of_int segs
  in
  let wait_checks = if cycles = 1 then 0. else c.receives +. (honest *. later_cycles) in
  let row layer probe per_download = { layer; unit_ns = unit probe; per_download } in
  let engine =
    match w.kind with
    | Campaign -> row "engine.arbiter_event" "engine.arbiter_ns_per_event" c.events
    | Sim_download | Net_download -> row "engine.event" "engine.ns_per_event" c.events
  in
  match w.kind with
  | Sim_download | Campaign ->
    [
      engine;
      row "engine.query_effect" "engine.query_effect_ns" c.queries;
      row "kernel.bitarray_init_bit" "kernel.bitarray_init_ns_per_bit" c.queries;
      row "kernel.frequent_add" "kernel.frequent_add_ns" wait_checks;
      row "kernel.frequent_covered" "kernel.frequent_covered_ns" wait_checks;
      row "kernel.dtree_build" "kernel.dtree_build_ns" resolves;
      row "kernel.dtree_determine" "kernel.dtree_determine_ns" resolves;
      row "kernel.bitarray_blit" "kernel.bitarray_blit_ns" blits;
      { layer = "trace.hooks"; unit_ns = hooks_ns; per_download = 1. };
    ]
  | Net_download ->
    (* The critical path of one net Download: spawn and mesh, then the
       slowest honest peer's queries one round trip each, then its k-1
       report frames. *)
    [
      { layer = "net.spawn"; unit_ns = unit "net.spawn_ms" *. 1e6; per_download = 1. };
      {
        layer = "net.query_rtt";
        unit_ns = unit "net.query_rtt_us_p50" *. 1e3;
        per_download = c.q_max;
      };
      {
        layer = "net.frame_rtt";
        unit_ns = unit "net.frame_rtt_us" *. 1e3;
        per_download = float_of_int (w.shape.k - 1);
      };
    ]

let attributed_ms rows =
  List.fold_left (fun acc r -> acc +. (r.unit_ns *. r.per_download /. 1e6)) 0. rows

(* Unit costs of every layer, shaped like the workload. *)
let probes w ~pool ~(c : counts) =
  let inst = pool.(0).inst in
  let x = inst.Problem.x and k = w.shape.k in
  let faulty = inst.Problem.fault.Dr_adversary.Fault.faulty_ids in
  let segs, _ = plan w in
  let rho =
    let h = max 1 (k - (2 * w.shape.t)) in
    max 1 (h / (2 * segs))
  in
  let seg_len = Dr_source.Segment.max_len (Dr_source.Segment.make ~n:w.shape.n ~s:segs) in
  let frame_bytes = int_of_float (Float.round c.wire_bytes_per_msg) in
  let spawn_inst =
    Problem.random_instance ~seed:pool.(0).latency_seed ~model:Problem.Byzantine ~k:4 ~n:1 ~t:1 ()
  in
  let spawn_core = (Registry.find_exn "byz-2cycle").Registry.core ~attack spawn_inst in
  let rtt50, rtt90 = Layers.query_rtt_us ~x ~queries:3000 in
  [
    m "engine.ns_per_event" (Layers.ns_per_event ~k) "ns";
    m "engine.minor_words_per_event" (Layers.minor_words_per_event ~k) "words";
    m "engine.query_effect_ns" (Layers.query_effect_ns ~x) "ns";
    m "engine.arbiter_ns_per_event" (Layers.arbiter_ns_per_event ~k) "ns";
    m "source.query_ns" (Layers.source_query_ns ~x) "ns";
    m "kernel.bitarray_init_ns_per_bit" (Layers.bitarray_init_ns_per_bit ~x ~len:seg_len) "ns";
    m "kernel.bitarray_blit_ns" (Layers.bitarray_blit_ns ~x ~len:seg_len) "ns";
    m "kernel.frequent_add_ns" (Layers.frequent_add_ns ~x ~k ~faulty ~s:segs) "ns";
    m "kernel.frequent_covered_ns"
      (Layers.frequent_covered_ns ~x ~k ~faulty ~s:segs ~rho
         ~multicycle:(w.shape.protocol = "byz-multicycle"))
      "ns";
    m "kernel.dtree_build_ns" (Layers.dtree_build_ns ~x ~faulty ~s:segs) "ns";
    m "kernel.dtree_determine_ns" (Layers.dtree_determine_ns ~x ~faulty ~s:segs) "ns";
    m "kernel.crc32_ns_per_kib" (Layers.crc32_ns_per_kib ~frame_bytes) "ns";
    m "net.spawn_ms" (Layers.spawn_ms ~core:spawn_core ~inst:spawn_inst ~reps:5) "ms";
    m "net.query_rtt_us_p50" rtt50 "us";
    m "net.query_rtt_us_p90" rtt90 "us";
    m "net.frame_rtt_us" (Layers.frame_rtt_us ~bytes:frame_bytes) "us";
  ]

(* Server-side query meter: honest peers' queries per net Download, read
   from the in-process server's accounting; each must equal the simulator
   twin's count (s = 1 makes it schedule-invariant). *)
let net_meter w pool ~(twin : counts) =
  let runs = List.init 3 (fun i -> pool.(i)) in
  let reports = List.map (fun input -> (input, run_net w input)) runs in
  let bad =
    List.length
      (List.filter
         (fun (input, ((r, _) as res)) ->
           (not (net_verified w input res))
           || float_of_int r.Problem.q_total <> twin.q_total)
         reports)
  in
  (mean_of (fun (_, (r, _)) -> r.Problem.q_total) reports, bad)

let per_layer w ~seed ~seconds =
  let pool, warm_ok = setup w ~seed in
  let twin, mismatches = sim_counts w pool in
  let c, mismatches =
    match w.kind with
    | Campaign ->
      let c, bad = campaign_counts w ~seed ~budget:check_budget ~twin in
      (c, mismatches + bad)
    | Sim_download | Net_download -> (twin, mismatches)
  in
  let net_q, net_bad =
    match w.kind with
    | Net_download -> net_meter w pool ~twin
    | Sim_download | Campaign -> (c.q_total, 0)
  in
  let untraced, traced = timing_pass w ~seed ~pool ~seconds:(seconds /. 2.) in
  let probed = probes w ~pool ~c in
  let unit name = (List.find (fun p -> p.name = name) probed).value in
  let layer prefix = List.filter (fun p -> String.starts_with ~prefix p.name) probed in
  let traced_p50 = Timing.median (ms_of traced) in
  let untraced_p50 = Timing.median (ms_of untraced) in
  let rows = attribution w c ~unit ~hooks_ns:((traced_p50 -. untraced_p50) *. 1e6) in
  let sigma = attributed_ms rows in
  Printf.printf "# attribution (%s): unit cost x count per Download = ms per Download\n" w.name;
  List.iter
    (fun r ->
      Printf.printf "#   %-26s %14.2f ns x %12.1f = %10.4f ms\n" r.layer r.unit_ns r.per_download
        (r.unit_ns *. r.per_download /. 1e6))
    rows;
  Printf.printf "#   %-26s %47.4f ms\n" "sum (attributed)" sigma;
  Printf.printf "#   %-26s %47.4f ms\n" "traced download_ms_p50" traced_p50;
  let metrics =
    [
      m "engine.events_per_download" c.events "count";
      m "engine.deliveries_per_download" c.deliveries "count";
      m "source.queries_per_download" c.queries "count";
    ]
    @ layer "engine." @ layer "source." @ layer "kernel."
    @ [
        m "protocol.minor_words_per_download" c.minor_words "words";
        m "protocol.bits_per_download" c.bits "bits";
        m "protocol.trace_overhead_frac" ((traced_p50 /. untraced_p50) -. 1.) "ratio";
        m "protocol.unattributed_frac" ((traced_p50 -. sigma) /. traced_p50) "ratio";
        m "protocol.attributed_ms" sigma "ms";
        m "protocol.traced_download_ms_p50" traced_p50 "ms";
      ]
    @ layer "net."
    @ [
        m "net.queries_per_download" net_q "count";
        m "net.wire_bytes_per_msg" c.wire_bytes_per_msg "B";
        m "net.model_bytes_per_msg" c.model_bytes_per_msg "B";
        m "check.events_per_execution" c.events "count";
      ]
  in
  (* Attempted: the warm-up, the count pass, the net meter's Downloads and
     the timing pass. *)
  let samples = untraced @ traced in
  let counted =
    twin.downloads
    + match w.kind with Campaign -> c.downloads | Net_download -> 3 | Sim_download -> 0
  in
  let attempted = 1 + counted + List.length samples in
  let failed = failures samples + mismatches + net_bad + if warm_ok then 0 else 1 in
  (attempted, min attempted failed, metrics)

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~attempted ~failed metrics =
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  let correct = failed = 0 && finite in
  List.iter (fun x -> Printf.printf "%-36s %22.6f %s\n" x.name x.value x.unit_) metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields);
  correct

(* ------------------------------------------------------------------ *)
(* Self-test                                                          *)
(* ------------------------------------------------------------------ *)

(* Two count passes with one seed must agree on every count; another seed
   must give another instance. Covers every simulator and check workload. *)
let self_test () =
  let counts_of w seed =
    let pool = inputs ~seed w count_sample in
    let twin, bad = sim_counts w pool in
    match w.kind with
    | Campaign ->
      let c, bad' = campaign_counts w ~seed ~budget:40 ~twin in
      (c, bad + bad')
    | Sim_download | Net_download -> (twin, bad)
  in
  let key (c : counts) = (c.events, c.deliveries, c.queries, c.msgs, c.q_max, c.digest) in
  let ok =
    List.for_all
      (fun w ->
        if w.kind = Net_download then true
        else begin
          let a, bad_a = counts_of w 1 and b, bad_b = counts_of w 1 and d, _ = counts_of w 2 in
          let same = key a = key b and differs = a.digest <> d.digest in
          let pass = same && differs && bad_a = 0 && bad_b = 0 in
          Printf.printf
            "%s %s: events %.1f deliveries %.1f queries %.1f msgs %.1f Q %.1f (%s, %s)\n"
            (if pass then "PASS" else "FAIL")
            w.name a.events a.deliveries a.queries a.msgs a.q_max
            (if same then "repeatable" else "NOT repeatable")
            (if differs then "seed-sensitive" else "NOT seed-sensitive");
          pass
        end)
      workloads
  in
  ok

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_string
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench --self-test\n\
     workloads:\n";
  List.iter (fun (w : workload) -> Printf.eprintf "  %-16s %s\n" w.name w.why) workloads;
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--self-test" ] then exit (if self_test () then 0 else 1);
  let rec value key = function
    | [] -> None
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> value key rest
  in
  let get key conv = match Option.bind (value key args) conv with Some v -> v | None -> usage () in
  let w = get "--workload" find in
  let seed = get "--seed" int_of_string_opt in
  let seconds = get "--seconds" float_of_string_opt in
  let trace = get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
  let attempted, failed, metrics =
    if trace then per_layer w ~seed ~seconds else end_to_end w ~seed ~seconds
  in
  exit (if emit ~attempted ~failed metrics then 0 else 1)
