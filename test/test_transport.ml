(* Transport conformance: the simulator runtime and the socket runtime must
   agree on everything that is schedule-invariant.

   Each scenario runs the same registry protocol on the same instance twice —
   once through [Exec] (the deterministic simulator) and once through
   [Dr_net.Runner] (k forked OS processes over loopback, querying a real
   source server) — and asserts identical verdicts and query counts. Timing
   is NOT compared, and message totals only where the protocol sends the
   same messages under every schedule: in general they depend on the
   delivery schedule, which the network does not replay. Both reports come
   from [Exec.finish] over one [Metrics] meter, so where M is
   schedule-invariant it must match exactly. Most scenarios below are chosen so the
   per-peer query counts are schedule-invariant (deterministic query plans,
   crash/attack behavior not keyed on arrival order); a scenario whose Q
   follows arrival order instead checks that both runtimes stay within the
   paper's bound. *)

module Problem = Dr_core.Problem
module Registry = Dr_core.Registry
module Exec = Dr_core.Exec
module Crash_plan = Dr_adversary.Crash_plan

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry lost protocol %s" name

(* [crash] is a function of the instance so the plan can target its fault
   set. 30s of wall clock is an order of magnitude above what these tiny
   instances need; it only bounds the damage of a hung child. Each
   [(clause, counter)] of [fires] must read nonzero on the net run.
   [~q_exact:false] replaces the equal-Q checks with the protocol's [Spec]
   bound on each runtime, for scenarios whose Q depends on the schedule;
   [~m_exact:true] adds the equal-M checks, for scenarios whose messages do
   not. *)
let check_same_m (sim : Problem.report) (net : Problem.report) =
  checki "msgs match" sim.Problem.msgs net.Problem.msgs;
  checki "bits_sent match" sim.Problem.bits_sent net.Problem.bits_sent;
  checki "max_msg_bits match" sim.Problem.max_msg_bits net.Problem.max_msg_bits

let conform ?(attack = "default") ?(crash = fun _ -> Crash_plan.none) ?chaos ?(fires = [])
    ?(q_exact = true) ?(m_exact = false) ~protocol ~k ~n ~t ~model ~seed () =
  let e = entry protocol in
  let inst = Problem.random_instance ~seed ~model ~k ~n ~t () in
  let crash = crash inst in
  let sim =
    e.Registry.run ~opts:(Exec.make_opts ~crash ()) ~attack inst
  in
  let net, _, faults =
    Dr_net.Runner.run_counted ~timeout:30. ~crash ?chaos (e.Registry.core ~attack inst) inst
  in
  checkb "sim verdict ok" true sim.Problem.ok;
  checkb "net verdict matches" sim.Problem.ok net.Problem.ok;
  if q_exact then begin
    checki "q_max matches" sim.Problem.q_max net.Problem.q_max;
    checki "q_total matches" sim.Problem.q_total net.Problem.q_total;
    Alcotest.(check (float 1e-9)) "q_mean matches" sim.Problem.q_mean net.Problem.q_mean
  end
  else begin
    let within (r : Problem.report) =
      Dr_core.Spec.within e.Registry.spec ~k ~n ~t ~b:inst.Problem.b ~measured:r.Problem.q_max
    in
    checkb "sim q_max within the Spec bound" true (within sim);
    checkb "net q_max within the Spec bound" true (within net)
  end;
  if m_exact then check_same_m sim net;
  List.iter (fun (clause, counter) -> checkb (clause ^ " fired") true (counter faults > 0)) fires

let test_crash_general_faultfree () =
  conform ~protocol:"crash-general" ~k:5 ~n:256 ~t:0 ~model:Problem.Crash ~seed:7L ()

(* With silent crashes, crash-general's later stages query only the bits a
   peer has not yet learned from others' reports, so its Q follows arrival
   order: the runtimes must agree on the verdict and both stay in bound. *)
let test_crash_general_silent_crash () =
  conform ~protocol:"crash-general" ~k:6 ~n:512 ~t:2 ~model:Problem.Crash ~seed:3L
    ~crash:(fun inst -> Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:0)
    ~q_exact:false ()

(* One segment at k = 6, t = 2: every honest peer broadcasts once and the
   silent faulty peers never send, so M is the same under every schedule. *)
let test_byz_2cycle_silent () =
  conform ~protocol:"byz-2cycle" ~attack:"silent" ~k:6 ~n:512 ~t:2 ~model:Problem.Byzantine
    ~seed:3L ~m_exact:true ()

(* Chaos conformance: injected infrastructure faults (drops, corruption,
   lost replies, a blackout window) sit below the reliability the protocols
   assume, so a chaotic net run must still agree with the pristine
   simulator on the verdict and on every query count — the replay cache
   keeps retried queries off the Q meter. Each run's fault counters show
   its clauses really fired: the specs count source {e requests}, and a
   range read is one request, so a trigger aimed past a peer's last
   request would pass vacuously. *)
let chaos spec =
  match Dr_net.Faultnet.parse_seeded spec with
  | Ok (chaos_seed, plan) -> { Dr_net.Runner.chaos_seed; plan }
  | Error e -> Alcotest.failf "bad chaos spec %S: %s" spec e

let test_chaos_conformance_crash_general () =
  conform ~protocol:"crash-general" ~k:5 ~n:256 ~t:0 ~model:Problem.Crash ~seed:7L
    ~chaos:(chaos "13:drop=0.1,corrupt=0.05,reply_loss=0.25")
    ~fires:
      [
        ("drop/corrupt", fun f -> f.Dr_net.Runner.retransmissions);
        ("reply_loss", fun f -> f.Dr_net.Runner.replay_hits);
      ]
    ()

(* With one segment each honest peer makes a single source request, so the
   blackout targets request 0. *)
let test_chaos_conformance_byz_2cycle () =
  conform ~protocol:"byz-2cycle" ~attack:"silent" ~k:6 ~n:512 ~t:2 ~model:Problem.Byzantine
    ~seed:3L
    ~chaos:(chaos "5:drop=0.2,source_blackout=3@q0,stall=1ms@p1")
    ~fires:
      [
        ("drop", fun f -> f.Dr_net.Runner.retransmissions);
        ("source_blackout", fun f -> f.Dr_net.Runner.reconnects);
      ]
    ()

(* An [After_queries] crash landing mid-segment. At k = 6, t = 2 byz-2cycle
   has one segment, so each peer reads all 512 bits in one range; the
   faulty peers run the honest code ([Mirror]) and die after 100 of those
   bits. Both runtimes must charge every peer the same Q — the crashed ones
   exactly 100 bits, which on sockets means the range request was cut to
   the bits the per-bit loop would have issued. A standalone server
   exposes the faulty peers' meters, which the report leaves out. The
   crashed peers never send and every honest one broadcasts once, so M
   must match too. *)
let test_byz_2cycle_crash_mid_segment () =
  let k = 6 and j = 100 in
  let inst = Problem.random_instance ~seed:3L ~model:Problem.Byzantine ~k ~n:512 ~t:2 () in
  let core = Dr_core.Byz_2cycle.core ~attack:Dr_core.Byz_2cycle.Mirror () in
  let crash = Crash_plan.after_queries inst.Problem.fault j in
  let sim_q, sim =
    let (module C : Dr_core.Transport.CORE) = core in
    let module ST = Dr_core.Sim_transport.Make (C.Msg) in
    let module P = C.Process (ST) in
    let outcome = ST.run_sim (Exec.build_config inst (Exec.make_opts ~crash ())) (P.run inst) in
    ( Array.init k (fun i -> (Dr_engine.Metrics.peer outcome.Dr_engine.Sim.metrics i).queries),
      Exec.finish ~protocol:C.name inst outcome )
  in
  let server = Dr_net.Source_server.create ~k inst.Problem.x in
  Dr_net.Source_server.start server;
  let source = { Dr_net.Runner.host = "127.0.0.1"; port = Dr_net.Source_server.port server } in
  let net = Dr_net.Runner.run ~timeout:30. ~source ~crash core inst in
  let net_q = Dr_net.Source_server.stats server in
  let control =
    Dr_net.Source_client.connect ~port:source.Dr_net.Runner.port
      ~peer:Dr_net.Source_proto.control_peer ()
  in
  Dr_net.Source_client.shutdown control;
  Dr_net.Source_client.close control;
  Dr_net.Source_server.stop server;
  checkb "sim verdict ok" true sim.Problem.ok;
  checkb "net verdict ok" true net.Problem.ok;
  check_same_m sim net;
  Array.iteri
    (fun i q ->
      let want = if Problem.honest inst i then 512 else j in
      checki (Printf.sprintf "sim: peer %d charged" i) want q)
    sim_q;
  Alcotest.(check (array int)) "per-peer Q, sim = net" sim_q net_q

(* In the theorem's regime: at k = 24, t = 2, n = 48 the plan gives two
   segments and rho = 5, so every honest peer runs cycle 2, waiting for
   reports through [await] over sockets. The silent faulty peers forge
   nothing, so each decision tree has one leaf and costs no query: Q is one
   segment (24 bits) and M is each of the 22 honest peers' one broadcast,
   under every schedule. *)
let test_byz_2cycle_in_regime () =
  checkb "plan: two segments, rho 5" true (Dr_core.Byz_2cycle.plan ~k:24 ~n:48 ~t:2 = (2, 5));
  conform ~protocol:"byz-2cycle" ~attack:"silent" ~k:24 ~n:48 ~t:2 ~model:Problem.Byzantine
    ~seed:3L ~q_exact:true ~m_exact:true ();
  let inst = Problem.random_instance ~seed:3L ~model:Problem.Byzantine ~k:24 ~n:48 ~t:2 () in
  let sim = (entry "byz-2cycle").Registry.run ~opts:(Exec.make_opts ()) ~attack:"silent" inst in
  checki "Q is one segment" 24 sim.Problem.q_max;
  checki "M is the honest broadcasts" 506 sim.Problem.msgs

(* byz-multicycle at the same shape runs two cycles of two segments and
   one. Cycle 2's segment is the whole input, so a peer outputs it and
   does not report it: as in the 2-cycle case, Q is one segment and M is
   the 22 honest cycle-1 broadcasts, under every schedule. *)
let test_byz_multicycle_in_regime () =
  checkb "plan: two segments, two cycles" true
    (Dr_core.Byz_multicycle.plan ~k:24 ~n:48 ~t:2 = (2, 2));
  conform ~protocol:"byz-multicycle" ~attack:"silent" ~k:24 ~n:48 ~t:2 ~model:Problem.Byzantine
    ~seed:3L ~q_exact:true ~m_exact:true ();
  let inst = Problem.random_instance ~seed:3L ~model:Problem.Byzantine ~k:24 ~n:48 ~t:2 () in
  let sim =
    (entry "byz-multicycle").Registry.run ~opts:(Exec.make_opts ()) ~attack:"silent" inst
  in
  checki "Q is one segment" 24 sim.Problem.q_max;
  checki "M is the honest cycle-1 broadcasts" 506 sim.Problem.msgs

let test_net_rejects_at_time_crash () =
  let e = entry "crash-general" in
  let inst = Problem.random_instance ~seed:1L ~model:Problem.Crash ~k:4 ~n:64 ~t:1 () in
  let crash = Crash_plan.staggered inst.Problem.fault ~first:0.5 ~gap:2.0 in
  match Dr_net.Runner.run ~timeout:30. ~crash (e.Registry.core inst) inst with
  | _ -> Alcotest.fail "wall-clock crash instants must be rejected"
  | exception Failure _ -> ()

(* Every protocol core waits with [await]: each registry core runs over a
   simulator transport whose [receive] raises, under every attack of its
   entry, and the crash-model entries also with every faulty peer dying
   after its first send. Every run must complete. *)
exception Receive_called

module No_receive (T : Dr_core.Transport.S) : Dr_core.Transport.S with type msg = T.msg = struct
  include T

  let receive () = raise Receive_called
end

let test_no_core_receives () =
  List.iter
    (fun e ->
      let inst =
        List.find
          (fun inst -> Registry.admits e inst = Ok ())
          (List.map
             (fun t -> Problem.random_instance ~seed:11L ~model:e.Registry.model ~k:9 ~n:200 ~t ())
             [ 3; 2; 1; 0 ])
      in
      let crashes =
        match e.Registry.model with
        | Problem.Crash ->
          [ ("no crash", Crash_plan.none);
            ("mid_broadcast:1", Crash_plan.mid_broadcast inst.Problem.fault ~after_sends:1) ]
        | Problem.Byzantine -> [ ("no crash", Crash_plan.none) ]
      in
      List.iter
        (fun attack ->
          let (module C : Dr_core.Transport.CORE) = e.Registry.core ~attack inst in
          let module ST = Dr_core.Sim_transport.Make (C.Msg) in
          let module P = C.Process (No_receive (ST)) in
          List.iter
            (fun (cname, crash) ->
              let outcome =
                ST.run_sim (Exec.build_config inst (Exec.make_opts ~crash ())) (P.run inst)
              in
              checkb
                (Printf.sprintf "%s/%s, %s: completed" (Registry.name e) attack cname)
                true
                (outcome.Dr_engine.Sim.status = Dr_engine.Sim.Completed))
            crashes)
        e.Registry.attacks)
    Registry.all

(* [Net_transport.send] in the simulator's order: a self-send is delivered
   to the sender and charged once, and a send outside [0, k) fails before
   the crash rule and the charge. The same cores run on both runtimes:
   every peer sends to itself (or to peer k) and then outputs X. *)
let send_core ~bad : (module Dr_core.Transport.CORE) =
  (module struct
    let name = if bad then "bad-send" else "self-send"

    module Msg = struct
      type t = int

      let size_bits _ = 64
      let tag = string_of_int
    end

    module Process (T : Dr_core.Transport.S with type msg = int) = struct
      let run inst i =
        if bad then (try T.send inst.Problem.k i with Invalid_argument _ -> ())
        else begin
          T.send i i;
          let got = ref false in
          T.await ~ready:(fun () -> !got) ~on:(fun src m -> got := src = i && m = i)
        end;
        T.query_range ~pos:0 ~len:(Problem.n inst)
    end
  end)

let test_self_and_bad_send () =
  let inst = Problem.random_instance ~seed:5L ~k:3 ~n:64 ~t:0 () in
  List.iter
    (fun (bad, msgs) ->
      let core = send_core ~bad in
      let (module C : Dr_core.Transport.CORE) = core in
      List.iter
        (fun (runtime, (r : Problem.report)) ->
          checkb (Printf.sprintf "%s on %s: ok" C.name runtime) true r.Problem.ok;
          checki (Printf.sprintf "%s on %s: M" C.name runtime) msgs r.Problem.msgs)
        [ ("sim", Exec.run_core core inst); ("net", Dr_net.Runner.run ~timeout:30. core inst) ])
    [ (false, 3); (true, 0) ]

let suite =
  [
    ("crash-general fault-free sim=net", `Quick, test_crash_general_faultfree);
    ("crash-general silent crash sim=net", `Quick, test_crash_general_silent_crash);
    ("byz-2cycle silent attack sim=net", `Quick, test_byz_2cycle_silent);
    ("crash-general sim=net under chaos", `Quick, test_chaos_conformance_crash_general);
    ("byz-2cycle sim=net under chaos", `Quick, test_chaos_conformance_byz_2cycle);
    ("net rejects At_time crash plans", `Quick, test_net_rejects_at_time_crash);
    ("byz-2cycle mid-segment query crash sim=net", `Quick, test_byz_2cycle_crash_mid_segment);
    ("byz-2cycle in-regime cycle 2 sim=net", `Quick, test_byz_2cycle_in_regime);
    ("byz-multicycle in-regime sim=net", `Quick, test_byz_multicycle_in_regime);
    ("no core calls receive", `Quick, test_no_core_receives);
    ("self-send and bad send sim=net", `Quick, test_self_and_bad_send);
  ]
