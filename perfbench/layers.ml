(* Per-layer unit costs, each timed by calling the layer's public functions
   from outside, on inputs shaped like the workload. Every probe returns
   nanoseconds per call (or per the unit its name says) as a median over
   batches, at reference speed; see Timing.per_unit_ns. *)

module Sim = Dr_engine.Sim
module Prng = Dr_engine.Prng
module Explore = Dr_engine.Explore
module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment
module Data_source = Dr_source.Data_source
module Frequent = Dr_core.Frequent
module Decision_tree = Dr_core.Decision_tree

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

module Storm_msg = struct
  type t = int

  let size_bits _ = 64
  let tag _ = "x"
end

module Storm = Sim.Make (Storm_msg)

(* One all-to-all round: every peer broadcasts, then drains k-1 receives —
   the densest delivery pattern the protocols create — under the workloads'
   jittered delays. Returns the events. *)
let storm ?arbiter ~k () =
  let cfg =
    {
      (Sim.default_config ~k ~query_bit:(fun ~peer:_ _ -> false)) with
      Sim.arbiter;
      latency = Dr_adversary.Latency.jittered (Prng.create 3L);
    }
  in
  let o =
    Storm.run cfg (fun i ->
        Storm.broadcast i;
        for _ = 1 to k - 1 do
          ignore (Storm.receive ())
        done)
  in
  (match o.Sim.status with Sim.Completed -> () | _ -> failwith "storm did not complete");
  o.Sim.events

let ns_per_event ~k = Timing.per_unit_ns (fun () -> storm ~k ())

let minor_words_per_event ~k =
  let before = Gc.minor_words () in
  let events = storm ~k () in
  (Gc.minor_words () -. before) /. float_of_int events

(* The arbiter path keeps pending events in a list of up to k(k-1)
   entries, so its per-event cost grows with k; the storm is capped at 16
   peers to keep the probe short on the wide workloads. *)
let arbiter_k k = min k 16

let arbiter_ns_per_event ~k =
  let prng = Prng.create 7L in
  Timing.per_unit_ns (fun () ->
      storm ~arbiter:(Explore.random (Prng.split prng)) ~k:(arbiter_k k) ())

(* One peer querying [bits] bits through [Sim.query] against a real
   [Data_source]: the simulator's per-bit query effect, source included. *)
let query_effect_ns ~x =
  let n = Bitarray.length x in
  let bits = max n 4096 in
  let source = Data_source.create ~k:1 x in
  let cfg = Sim.default_config ~k:1 ~query_bit:(Data_source.query_fn source) in
  Timing.per_unit_ns (fun () ->
      ignore
        (Storm.run cfg (fun _ ->
             for i = 0 to bits - 1 do
               ignore (Storm.query (i mod n))
             done));
      bits)

(* ------------------------------------------------------------------ *)
(* Source                                                             *)
(* ------------------------------------------------------------------ *)

let source_query_ns ~x =
  let n = Bitarray.length x in
  let source = Data_source.create ~k:1 x in
  let calls = 4096 in
  Timing.per_unit_ns (fun () ->
      for i = 0 to calls - 1 do
        ignore (Data_source.query source ~peer:0 (i mod n))
      done;
      calls)

(* ------------------------------------------------------------------ *)
(* Kernels                                                            *)
(* ------------------------------------------------------------------ *)

let bitarray_init_ns_per_bit ~x ~len =
  Timing.per_unit_ns (fun () ->
      ignore (Bitarray.init len (fun r -> Bitarray.get x r));
      len)

let bitarray_blit_ns ~x ~len =
  let src = Bitarray.sub x ~pos:0 ~len in
  let dst = Bitarray.create (Bitarray.length x) in
  let pos = Bitarray.length x - len in
  Timing.per_unit_ns (fun () ->
      Bitarray.blit ~src ~dst ~pos;
      1)

(* The reports one peer's store holds when cycle 2 opens: every honest
   peer's real segment at a random pick, every faulty peer's near-miss
   forgery of segment [peer mod s] — the shapes the protocols produce. *)
let cycle2_reports ~x ~k ~faulty ~s =
  let spec = Segment.make ~n:(Bitarray.length x) ~s in
  let prng = Prng.create 11L in
  List.init k (fun peer ->
      if not (List.mem peer faulty) then
        let seg = Prng.int prng s in
        (peer, seg, Segment.extract spec x seg)
      else
        let seg = peer mod s in
        let bits = Segment.extract spec x seg in
        (peer, seg, Bitarray.flip bits (peer mod Bitarray.length bits)))

let fill reports =
  let store = Frequent.create () in
  List.iter (fun (peer, seg, bits) -> ignore (Frequent.add store ~seg ~peer bits)) reports;
  store

let frequent_add_ns ~x ~k ~faulty ~s =
  let reports = cycle2_reports ~x ~k ~faulty ~s in
  Timing.per_unit_ns (fun () ->
      ignore (fill reports);
      k)

(* The wait-loop check each received report triggers: [covered] over all
   segments for byz-2cycle, [frequent] on the pick's two children for
   byz-multicycle. *)
let frequent_covered_ns ~x ~k ~faulty ~s ~rho ~multicycle =
  let store = fill (cycle2_reports ~x ~k ~faulty ~s) in
  let check =
    if multicycle then fun () ->
      Frequent.frequent store ~seg:0 ~rho <> [] && Frequent.frequent store ~seg:(1 mod s) ~rho <> []
    else fun () -> Frequent.covered store ~segments:s ~rho
  in
  Timing.per_unit_ns (fun () ->
      ignore (check ());
      1)

(* Segment 0's honest string plus every near-miss forgery aimed at it. *)
let near_miss_candidates ~x ~faulty ~s =
  let spec = Segment.make ~n:(Bitarray.length x) ~s in
  let real = Segment.extract spec x 0 in
  let len = Bitarray.length real in
  real
  :: List.filter_map
       (fun peer -> if peer mod s = 0 then Some (Bitarray.flip real (peer mod len)) else None)
       faulty

let dtree_build_ns ~x ~faulty ~s =
  let candidates = near_miss_candidates ~x ~faulty ~s in
  Timing.per_unit_ns (fun () ->
      ignore (Decision_tree.build candidates);
      1)

let dtree_determine_ns ~x ~faulty ~s =
  let tree = Decision_tree.build (near_miss_candidates ~x ~faulty ~s) in
  let query i = Bitarray.get x i in
  Timing.per_unit_ns (fun () ->
      ignore (Decision_tree.determine ~query ~offset:0 tree);
      1)

let crc32_ns_per_kib ~frame_bytes =
  let buf = Bytes.init (max 1 frame_bytes) (fun i -> Char.chr (i land 0xff)) in
  let ns = Timing.per_unit_ns (fun () -> ignore (Dr_core.Wire.Crc32.bytes buf); 1) in
  ns *. 1024. /. float_of_int (Bytes.length buf)

(* ------------------------------------------------------------------ *)
(* Net                                                                *)
(* ------------------------------------------------------------------ *)

(* [Runner.run] on a one-bit instance: fork, mesh, one query, exit. *)
let spawn_ms ~core ~inst ~reps =
  let times =
    List.init reps (fun _ ->
        let ns, r = Timing.timed (fun () -> Dr_net.Runner.run ~timeout:30. core inst) in
        if not r.Dr_core.Problem.ok then failwith "spawn probe: Download not verified";
        ns /. 1e6)
  in
  Timing.median times *. Timing.scale_now ()

(* One client's [Query(i)] round trips against an in-process server;
   returns (p50, p90) in microseconds. Every answer is checked against X. *)
let query_rtt_us ~x ~queries =
  let server = Dr_net.Source_server.create ~k:1 x in
  Dr_net.Source_server.start server;
  let port = Dr_net.Source_server.port server in
  let client = Dr_net.Source_client.connect ~port ~peer:0 () in
  let n = Bitarray.length x in
  let samples =
    List.init queries (fun q ->
        let i = q * 7919 mod n in
        let ns, v = Timing.timed (fun () -> Dr_net.Source_client.query client i) in
        if v <> Bitarray.get x i then failwith "query probe: wrong answer";
        ns /. 1e3)
  in
  Dr_net.Source_client.close client;
  let control = Dr_net.Source_client.connect ~port ~peer:Dr_net.Source_proto.control_peer () in
  Dr_net.Source_client.shutdown control;
  Dr_net.Source_server.stop server;
  Dr_net.Source_client.close control;
  let scale = Timing.scale_now () in
  (Timing.quantile samples 0.5 *. scale, Timing.quantile samples 0.9 *. scale)

(* A frame of [bytes] bytes there and back over a loopback TCP pair. *)
let frame_rtt_us ~bytes =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect a (Unix.getsockname lsock);
  let b, _ = Unix.accept lsock in
  Unix.close lsock;
  List.iter (fun fd -> Unix.setsockopt fd Unix.TCP_NODELAY true) [ a; b ];
  let payload = Bytes.make (max 1 bytes) 'p' in
  let ns =
    Timing.per_unit_ns (fun () ->
        Dr_net.Frame.send_bytes a payload;
        Dr_net.Frame.send_bytes b (Dr_net.Frame.recv_bytes b);
        if Bytes.length (Dr_net.Frame.recv_bytes a) <> Bytes.length payload then
          failwith "frame probe: short frame";
        1)
  in
  Unix.close a;
  Unix.close b;
  ns /. 1e3
