(* The Spec bounds must (a) match the protocol registry, (b) hold on live
   executions across the whole parameter grid. *)

open Dr_core
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan
module Prng = Dr_engine.Prng

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let test_spec_covers_registry () =
  (* Each entry's spec names the protocol its core (and so its derived
     runner) reports, and lookup round-trips. *)
  let inst = Problem.random_instance ~model:Problem.Byzantine ~k:9 ~n:64 ~t:2 () in
  List.iter
    (fun e ->
      let (module C : Transport.CORE) = e.Registry.core inst in
      checks (Registry.name e ^ " core name") e.Registry.spec.Spec.protocol C.name;
      checks (Registry.name e ^ " report name") C.name
        (e.Registry.run inst).Problem.protocol;
      checkb (Registry.name e ^ " spec lookup") true
        (Registry.spec_of (Registry.name e) <> None))
    Registry.all;
  checkb "no orphan specs" true
    (List.for_all (fun e -> Registry.find e.Registry.spec.Spec.protocol <> None) Registry.all)

let test_registry_entries () =
  checki "seven entries" 7 (List.length Registry.all);
  checkb "unique names" true
    (List.sort_uniq compare Registry.names = List.sort compare Registry.names);
  let two = Registry.find_exn "byz-2cycle" in
  checkb "2cycle is Byzantine" true (two.Registry.model = Problem.Byzantine);
  checkb "2cycle randomized" true two.Registry.spec.Spec.randomized;
  let cg = Registry.find_exn "crash-general" in
  checkb "crash-general is Crash" true (cg.Registry.model = Problem.Crash);
  checkb "crash-general deterministic" false cg.Registry.spec.Spec.randomized;
  checkb "unknown name" true (Registry.find "nope" = None);
  let inst = Problem.random_instance ~seed:2L ~k:8 ~n:128 ~t:2 () in
  checkb "admits reads the regime" true (Registry.admits cg inst = Ok ())

let test_registry_attack_dispatch () =
  let byz = Problem.random_instance ~seed:9L ~model:Problem.Byzantine ~k:9 ~n:256 ~t:2 () in
  let committee = Registry.find_exn "byz-committee" in
  checkb "committee silent attack runs" true
    (committee.Registry.run ~attack:"silent" byz).Problem.ok;
  (match committee.Registry.run ~attack:"bogus" byz with
  | _ -> Alcotest.fail "expected Unknown_attack on unknown attack"
  | exception Registry.Unknown_attack { protocol = "byz-committee"; attack = "bogus"; _ } -> ());
  let two = Registry.find_exn "byz-2cycle" in
  (* The lie attack may legitimately defeat a tiny segment count; the check
     here is that the attack name reaches the right protocol. *)
  checks "2cycle lie attack dispatches" "byz-2cycle"
    (two.Registry.run ~attack:"lie" ~segments:2 byz).Problem.protocol;
  (* Protocols without an attack surface ignore the attack name, as the CLI
     always has. *)
  let crash = Problem.random_instance ~seed:9L ~k:8 ~n:256 ~t:2 () in
  checkb "crash-general ignores attack" true
    ((Registry.find_exn "crash-general").Registry.run ~attack:"flip" crash).Problem.ok

let test_bounds_hold_on_live_runs () =
  (* Crash protocols under silent crashes: measured Q <= bound. *)
  List.iter
    (fun (k, n, t, seed) ->
      let inst = Problem.random_instance ~seed ~k ~n ~t () in
      let opts =
        Exec.default
        |> Exec.with_latency (Latency.jittered (Prng.create seed))
        |> Exec.with_crash (Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0)
      in
      let r = Exec.run_core ~opts (Crash_general.core ()) inst in
      checkb
        (Printf.sprintf "crash-general within bound (k=%d n=%d t=%d)" k n t)
        true
        (r.Problem.ok && Spec.within Spec.crash_general ~k ~n ~t ~b:inst.Problem.b ~measured:r.Problem.q_max))
    [ (8, 512, 2, 1L); (8, 512, 6, 2L); (16, 2048, 8, 3L); (12, 1200, 11, 4L) ]

let test_bounds_hold_committee () =
  List.iter
    (fun (k, n, t, seed) ->
      let inst = Problem.random_instance ~seed ~model:Problem.Byzantine ~k ~n ~t () in
      let r = Exec.run_core (Committee.core ~attack:Committee.Equivocate ()) inst in
      checkb
        (Printf.sprintf "committee within bound (k=%d n=%d t=%d)" k n t)
        true
        (r.Problem.ok && Spec.within Spec.committee ~k ~n ~t ~b:inst.Problem.b ~measured:r.Problem.q_max))
    [ (9, 512, 4, 1L); (16, 2048, 4, 2L); (32, 4096, 8, 3L) ]

let test_bounds_hold_2cycle () =
  List.iter
    (fun (k, n, t, seed) ->
      let inst = Problem.random_instance ~seed ~model:Problem.Byzantine ~k ~n ~t () in
      let r = Exec.run_core (Byz_2cycle.core ~attack:Byz_2cycle.Near_miss ()) inst in
      checkb
        (Printf.sprintf "2cycle within bound (k=%d n=%d t=%d)" k n t)
        true
        (r.Problem.ok && Spec.within Spec.byz_2cycle ~k ~n ~t ~b:inst.Problem.b ~measured:r.Problem.q_max))
    [ (128, 8192, 8, 1L); (128, 8192, 32, 2L); (16, 256, 4, 3L) ]

let test_bound_is_not_vacuous () =
  (* The bounds must sit below naive for the interesting regimes. *)
  let k = 32 and n = 16384 and t = 8 and b = 960 in
  checkb "crash bound < n" true (Spec.crash_general.Spec.q_bound ~k ~n ~t ~b < float_of_int n);
  checkb "committee bound < n" true (Spec.committee.Spec.q_bound ~k ~n ~t ~b < float_of_int n);
  checkb "2cycle bound < n" true
    (Spec.byz_2cycle.Spec.q_bound ~k:128 ~n:32768 ~t:8 ~b < 32768.)

(* [query_range] changes how a segment read travels, not what it costs.
   Every registry protocol, under every attack, with and without an
   [After_queries] crash landing inside a read, charges each peer — faulty ones included — exactly the Q it
   charges when every range is the per-bit loop it replaced, and records
   the same trace. *)
module Per_bit (T : Transport.S) = struct
  include T

  let query_range ~pos ~len = Dr_source.Bitarray.init len (fun r -> T.query (pos + r))
end

let run_reading ~per_bit (module C : Transport.CORE) inst opts =
  let module ST = Sim_transport.Make (C.Msg) in
  let trace = Dr_engine.Trace.create () in
  let cfg = Exec.build_config inst (Exec.with_trace trace opts) in
  let outcome =
    if per_bit then
      let module P = C.Process (Per_bit (ST)) in
      ST.run_sim cfg (P.run inst)
    else
      let module P = C.Process (ST) in
      ST.run_sim cfg (P.run inst)
  in
  ( Array.init inst.Problem.k (fun i ->
        (Dr_engine.Metrics.peer outcome.Dr_engine.Sim.metrics i).Dr_engine.Metrics.queries),
    Dr_engine.Trace.events trace,
    Exec.finish ~protocol:C.name inst outcome )

let test_range_reads_charge_per_bit () =
  List.iter
    (fun e ->
      let admitted =
        List.filter_map
          (fun t ->
            let inst =
              Problem.random_instance ~seed:11L ~model:e.Registry.model ~k:9 ~n:200 ~t ()
            in
            if Registry.admits e inst = Ok () then Some inst else None)
          [ 3; 2; 1; 0 ]
      in
      let inst = List.hd admitted in
      List.iter
        (fun attack ->
          let core = e.Registry.core ~attack inst in
          List.iter
            (fun (cname, crash) ->
              let opts = Exec.make_opts ~crash () in
              let q_range, tr_range, rep_range = run_reading ~per_bit:false core inst opts in
              let q_loop, tr_loop, rep_loop = run_reading ~per_bit:true core inst opts in
              let what = Printf.sprintf "%s/%s, %s" (Registry.name e) attack cname in
              Alcotest.(check (array int)) (what ^ ": per-peer Q") q_loop q_range;
              checkb (what ^ ": trace") true (tr_loop = tr_range);
              checkb (what ^ ": report") true (rep_loop = rep_range))
            [
              ("no crash", Crash_plan.none);
              ("crash after 7 queries", Crash_plan.after_queries inst.Problem.fault 7);
            ])
        e.Registry.attacks)
    Registry.all

(* A seeded bug: a core whose peers write into the bits a range read
   returned. The simulator's source shares those bytes with every other
   read of the range, so [Exec.run_core] refuses the run with
   [Read_mutated], for a segment and for a one-bit range; the same core
   copying before it writes is fine. *)
let scribbler ~copy ~len : (module Transport.CORE) =
  (module struct
    let name = "scribbler"

    module Msg = struct
      type t = unit

      let size_bits () = 1
      let tag () = ""
    end

    module Process (T : Transport.S with type msg = Msg.t) = struct
      let run inst _i =
        let read = T.query_range ~pos:2 ~len in
        let mine = if copy then Dr_source.Bitarray.copy read else read in
        Dr_source.Bitarray.set mine 0 (not (Dr_source.Bitarray.get inst.Problem.x 2));
        T.query_range ~pos:0 ~len:(Problem.n inst)
    end
  end)

let test_mutated_read_caught () =
  let inst = Problem.random_instance ~seed:5L ~k:4 ~n:64 ~t:0 () in
  let module D = Dr_source.Data_source in
  List.iter
    (fun (len, answer) ->
      let what = Printf.sprintf "%d-bit read" len in
      (match Exec.run_core (scribbler ~copy:false ~len) inst with
      | _ -> Alcotest.fail (what ^ ": a write into a shared read went unnoticed")
      | exception D.Read_mutated got -> checkb (what ^ ": the mutated answer") true (got = answer));
      checkb (what ^ ": a copy may be written") true
        (Exec.run_core (scribbler ~copy:true ~len) inst).Problem.ok)
    [
      (10, D.Range { pos = 2; len = 10 });
      (1, D.One_bit (Dr_source.Bitarray.get inst.Problem.x 2));
    ]

(* Admission is the regime: for every entry, k in 2..10, t < k and either
   fault model, [Registry.admits] holds exactly where [spec.resilience] does. *)
let test_admission_is_the_regime () =
  List.iter
    (fun e ->
      List.iter
        (fun model ->
          for k = 2 to 10 do
            for t = 0 to k - 1 do
              let inst = Problem.random_instance ~model ~k ~n:32 ~t () in
              checkb
                (Printf.sprintf "%s k=%d t=%d" (Registry.name e) k t)
                (e.Registry.spec.Spec.resilience ~k ~t)
                (Registry.admits e inst = Ok ())
            done
          done)
        [ Problem.Crash; Problem.Byzantine ])
    Registry.all

let suite =
  [
    ("spec covers the registry", `Quick, test_spec_covers_registry);
    ("registry entries are coherent", `Quick, test_registry_entries);
    ("registry attack dispatch", `Quick, test_registry_attack_dispatch);
    ("crash-general bound holds live", `Quick, test_bounds_hold_on_live_runs);
    ("committee bound holds live", `Quick, test_bounds_hold_committee);
    ("2cycle bound holds live", `Quick, test_bounds_hold_2cycle);
    ("bounds are not vacuous", `Quick, test_bound_is_not_vacuous);
    ("range reads charge Q per bit", `Quick, test_range_reads_charge_per_bit);
    ("a write into a shared read is caught", `Quick, test_mutated_read_caught);
    ("admission is the regime", `Quick, test_admission_is_the_regime);
  ]
