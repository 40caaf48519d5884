(* The chaos-hardened socket runtime, below the protocol layer: hardened
   frames over hostile byte streams, the seeded fault planner, and the
   retrying source client against the server's replay cache.

   Like the transport suite, some tests fork or spawn threads over real
   sockets; the suite must run before the stats suite (OCaml 5 refuses
   Unix.fork once domains have been spawned). *)

module Frame = Dr_net.Frame
module Faultnet = Dr_net.Faultnet
module Wire = Dr_core.Wire

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Frame layer ------------------------------------------------------- *)

(* A frame must reassemble from arbitrarily fragmented reads: the writer
   dribbles the encoded frame one byte at a time (yielding at the header
   boundary and mid-payload so the reader demonstrably blocks on short
   reads), and two frames back-to-back must not desynchronize. *)
let test_frame_byte_dribble () =
  let p1 = Bytes.of_string "hello, chaos" in
  let p2 = Bytes.of_string "second frame survives fragmentation" in
  let encode p =
    let header = Wire.Frame.encode_header ~len:(Bytes.length p) ~crc:(Wire.Crc32.bytes p) in
    Bytes.cat header p
  in
  let stream = Bytes.cat (encode p1) (encode p2) in
  let r, w = Unix.pipe ~cloexec:false () in
  let writer =
    Thread.create
      (fun () ->
        Bytes.iteri
          (fun i b ->
            if i = Wire.Frame.header_len || i mod 7 = 0 then Thread.delay 0.001;
            ignore (Unix.write w (Bytes.make 1 b) 0 1))
          stream;
        Unix.close w)
      ()
  in
  checks "first frame reassembles" (Bytes.to_string p1) (Bytes.to_string (Frame.recv_bytes r));
  checks "second frame reassembles" (Bytes.to_string p2) (Bytes.to_string (Frame.recv_bytes r));
  (match Frame.recv_bytes r with
  | _ -> Alcotest.fail "expected End_of_file after the stream closes"
  | exception End_of_file -> ());
  Thread.join writer;
  Unix.close r

(* A header that is not ours must be rejected before any payload
   allocation: garbage bytes fail the magic check, and a valid magic with
   a hostile length fails the bound — both kill the stream as [Desync]. *)
let test_frame_hostile_headers () =
  let feed header =
    let r, w = Unix.pipe ~cloexec:false () in
    (* Shorter than PIPE_BUF, so one write delivers it whole. *)
    ignore (Unix.write w header 0 (Bytes.length header));
    Unix.close w;
    let result =
      match Frame.recv_bytes r with
      | _ -> `Payload
      | exception Frame.Desync _ -> `Desync
      | exception Frame.Corrupt _ -> `Corrupt
    in
    Unix.close r;
    result
  in
  (match feed (Bytes.make Wire.Frame.header_len '\xff') with
  | `Desync -> ()
  | _ -> Alcotest.fail "garbage header must desynchronize");
  let oversized =
    (* Correct magic, length far beyond [max_payload]: the bound must trip
       before a buffer of that size is ever allocated. *)
    let b = Bytes.make Wire.Frame.header_len '\x00' in
    Bytes.blit (Wire.Frame.encode_header ~len:0 ~crc:0) 0 b 0 4;
    Bytes.set_int32_be b 4 0x7fff_ffffl;
    b
  in
  (match feed oversized with
  | `Desync -> ()
  | _ -> Alcotest.fail "hostile length must desynchronize")

(* A corrupted transmission is detected by CRC and skipped with the stream
   still in sync: the injected-fault sender's good copy right behind it is
   delivered untouched. *)
let test_frame_corrupt_then_recover () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = Bytes.of_string "bit-flipped on the wire" in
  Frame.send_corrupted a payload;
  Frame.send_bytes a payload;
  (match Frame.recv_bytes b with
  | _ -> Alcotest.fail "corrupted frame must not be delivered"
  | exception Frame.Corrupt _ -> ());
  checks "good copy follows in sync" (Bytes.to_string payload)
    (Bytes.to_string (Frame.recv_bytes b));
  Unix.close a;
  Unix.close b

(* --- Faultnet ---------------------------------------------------------- *)

let full_spec = "drop=0.25,corrupt=0.1,stall=2ms@p1,disconnect=peer2@msg40,reply_loss=0.5,source_blackout=3@q5"

(* The spec half of [--chaos SEED:SPEC], under a fixed seed. *)
let parse spec = Result.map snd (Faultnet.parse_seeded ("0:" ^ spec))

let test_faultnet_parse_roundtrip () =
  let plan =
    match parse full_spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  checkb "every clause parsed" true
    (plan.Faultnet.drop = 0.25 && plan.Faultnet.corrupt = 0.1 && plan.Faultnet.stall = 0.002
    && plan.Faultnet.stall_peer = Some 1
    && plan.Faultnet.disconnect = Some (2, 40)
    && plan.Faultnet.reply_loss = 0.5
    && plan.Faultnet.blackout = Some (Faultnet.Query_window { at = 5; count = 3 }));
  (match Faultnet.parse_seeded ("42:" ^ full_spec) with
  | Ok (seed, p) ->
    checkb "seed parses" true (Int64.equal seed 42L);
    checkb "seeded spec matches plain" true (p = plan)
  | Error e -> Alcotest.failf "parse_seeded failed: %s" e);
  (match parse "" with
  | Ok p -> checkb "empty spec is none" true (Faultnet.is_none p)
  | Error e -> Alcotest.failf "empty spec: %s" e);
  List.iter
    (fun (spec, why) ->
      match parse spec with
      | Ok _ -> Alcotest.failf "%s must be rejected: %s" why spec
      | Error _ -> ())
    [
      ("drop=2.0", "out-of-range probability");
      ("stall=inf", "infinite stall");
      ("stall=1e400ms", "overflowing stall");
      ("source_blackout=inf@t0", "infinite blackout");
      ("source_blackout=1s@tinf", "infinite blackout start");
    ];
  match parse "frobnicate=1" with
  | Ok _ -> Alcotest.fail "unknown clause must be rejected"
  | Error _ -> ()

(* Durations take ms, s or no unit (seconds). *)
let test_faultnet_duration_units () =
  let plan spec =
    match parse spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s: %s" spec e
  in
  checkb "milliseconds" true ((plan "stall=250ms").Faultnet.stall = 0.25);
  checkb "seconds" true ((plan "stall=1.5s").Faultnet.stall = 1.5);
  checkb "bare number is seconds" true ((plan "stall=2").Faultnet.stall = 2.);
  checkb "time-window blackout" true
    ((plan "source_blackout=0.5s@t1").Faultnet.blackout
    = Some (Faultnet.Time_window { at = 1.; dur = 0.5 }))

(* The acceptance bar for reproducible chaos: the same SEED:SPEC yields a
   byte-identical fault schedule — every link and source decision equal,
   op by op — while another seed (or another peer's stream) diverges. *)
let test_faultnet_deterministic_schedule () =
  let plan =
    match parse "drop=0.5,corrupt=0.3,reply_loss=0.5" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let schedule ~seed ~peer =
    let t = Faultnet.make ~seed ~peer plan in
    List.init 200 (fun i ->
        if i mod 3 = 0 then begin
          let a = Faultnet.on_source_request t ~elapsed:0. in
          (0, (if a.Faultnet.refuse then 1 else 0), (if a.Faultnet.lose_reply then 1 else 0))
        end
        else begin
          let a = Faultnet.on_send t in
          (1, a.Faultnet.pre_drops, if a.Faultnet.corrupt_first then 1 else 0)
        end)
  in
  checkb "same seed, same peer: identical schedule" true
    (schedule ~seed:9L ~peer:0 = schedule ~seed:9L ~peer:0);
  checkb "different seed diverges" true
    (schedule ~seed:9L ~peer:0 <> schedule ~seed:10L ~peer:0);
  checkb "different peer stream diverges" true
    (schedule ~seed:9L ~peer:0 <> schedule ~seed:9L ~peer:1)

(* --- Source client retry/replay ---------------------------------------- *)

(* Every reply is lost once ([reply_loss=1]): each logical query is sent
   twice under one sequence number across a forced reconnect, the server
   answers the retry from its replay cache, and the peer's Q meter — the
   paper's central cost — is charged exactly once per logical query: one
   bit for a [query], [len] bits for a [query_range]. *)
let test_source_client_replay_charged_once () =
  let n = 64 in
  let x = Dr_source.Bitarray.random (Dr_engine.Prng.create 5L) n in
  let server = Dr_net.Source_server.create ~k:2 x in
  Dr_net.Source_server.start server;
  let plan =
    match parse "reply_loss=1.0" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let chaos = Faultnet.make ~seed:1L ~peer:0 plan in
  let port = Dr_net.Source_server.port server in
  let client = Dr_net.Source_client.connect ~port ~peer:0 ~chaos () in
  let logical = 16 in
  for i = 0 to logical - 1 do
    checkb (Printf.sprintf "Query(%d) answers correctly despite the lost reply" i)
      (Dr_source.Bitarray.get x i)
      (Dr_net.Source_client.query client i)
  done;
  let ranges = [ (3, 20); (40, 24) ] in
  List.iter
    (fun (pos, len) ->
      checkb
        (Printf.sprintf "Query_range(%d, %d) answers correctly despite the lost reply" pos len)
        true
        (Dr_source.Bitarray.equal (Dr_source.Bitarray.sub x ~pos ~len)
           (Dr_net.Source_client.query_range client ~pos ~len)))
    ranges;
  let range_bits = List.fold_left (fun acc (_, len) -> acc + len) 0 ranges in
  let requests = logical + List.length ranges in
  checkb "lost replies forced reconnects" true (Dr_net.Source_client.reconnects client > 0);
  let control =
    Dr_net.Source_client.connect ~port ~peer:Dr_net.Source_proto.control_peer ()
  in
  let per_peer, total, replays = Dr_net.Source_client.stats control in
  checki "Q charged exactly once per logical query, len bits per range"
    (logical + range_bits) per_peer.(0);
  checki "total matches" (logical + range_bits) total;
  checki "every retry hit the replay cache" requests replays;
  Dr_net.Source_client.close client;
  Dr_net.Source_client.shutdown control;
  Dr_net.Source_client.close control;
  Dr_net.Source_server.stop server

(* [disconnect=peerN@msgM] is one forced disconnect: the M-th request
   drops the link and every later request reuses the redialled one. *)
let test_disconnect_fires_once () =
  let n = 16 in
  let x = Dr_source.Bitarray.random (Dr_engine.Prng.create 2L) n in
  let server = Dr_net.Source_server.create ~k:1 x in
  Dr_net.Source_server.start server;
  let plan =
    match parse "disconnect=peer0@msg1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let chaos = Faultnet.make ~seed:1L ~peer:0 plan in
  let port = Dr_net.Source_server.port server in
  let client = Dr_net.Source_client.connect ~port ~peer:0 ~chaos () in
  for i = 0 to 9 do
    checkb (Printf.sprintf "Query(%d) answers" i) (Dr_source.Bitarray.get x i)
      (Dr_net.Source_client.query client i)
  done;
  checki "one disconnect, one reconnect" 1 (Dr_net.Source_client.reconnects client);
  let control =
    Dr_net.Source_client.connect ~port ~peer:Dr_net.Source_proto.control_peer ()
  in
  Dr_net.Source_client.close client;
  Dr_net.Source_client.shutdown control;
  Dr_net.Source_client.close control;
  Dr_net.Source_server.stop server

(* A query or range outside the input is answered [Err] — a [Failure] at
   the client — and charged nothing; the connection stays usable. *)
let test_source_rejects_without_charging () =
  let n = 32 in
  let x = Dr_source.Bitarray.random (Dr_engine.Prng.create 3L) n in
  let server = Dr_net.Source_server.create ~k:1 x in
  Dr_net.Source_server.start server;
  let port = Dr_net.Source_server.port server in
  let client = Dr_net.Source_client.connect ~port ~peer:0 () in
  let rejected what f =
    match f () with
    | _ -> Alcotest.failf "%s must be rejected" what
    | exception Failure _ -> ()
  in
  rejected "Query(n)" (fun () -> ignore (Dr_net.Source_client.query client n));
  rejected "Query(-1)" (fun () -> ignore (Dr_net.Source_client.query client (-1)));
  List.iter
    (fun (pos, len) ->
      rejected (Printf.sprintf "Query_range(%d, %d)" pos len) (fun () ->
          ignore (Dr_net.Source_client.query_range client ~pos ~len)))
    [ (-1, 4); (0, -1); (0, n + 1); (n - 3, 4); (max_int, 2); (1, max_int) ];
  let control =
    Dr_net.Source_client.connect ~port ~peer:Dr_net.Source_proto.control_peer ()
  in
  let per_peer, _, _ = Dr_net.Source_client.stats control in
  checki "rejected requests charged nothing" 0 per_peer.(0);
  checkb "a good range still answers" true
    (Dr_source.Bitarray.equal x (Dr_net.Source_client.query_range client ~pos:0 ~len:n));
  let per_peer, _, _ = Dr_net.Source_client.stats control in
  checki "the good range charged n bits" n per_peer.(0);
  Dr_net.Source_client.close client;
  Dr_net.Source_client.shutdown control;
  Dr_net.Source_client.close control;
  Dr_net.Source_server.stop server

(* Retry exhaustion is a typed failure, not a hang. *)
let test_source_client_unreachable () =
  let cfg = { Dr_net.Source_client.default_config with max_retries = 1 } in
  match Dr_net.Source_client.connect ~port:1 ~peer:0 ~cfg () with
  | _ -> Alcotest.fail "connecting to a closed port must fail"
  | exception Dr_net.Source_client.Unreachable _ -> ()

let suite =
  [
    ("frame reassembles from byte-dribbled reads", `Quick, test_frame_byte_dribble);
    ("hostile headers desynchronize before allocation", `Quick, test_frame_hostile_headers);
    ("corrupt frame skipped, stream stays in sync", `Quick, test_frame_corrupt_then_recover);
    ("faultnet spec parse/describe round-trip", `Quick, test_faultnet_parse_roundtrip);
    ("faultnet schedule is seed-deterministic", `Quick, test_faultnet_deterministic_schedule);
    ("lost replies: replay cache charges Q once", `Quick, test_source_client_replay_charged_once);
    ("disconnect=peerN@msgM fires once", `Quick, test_disconnect_fires_once);
    ("retry exhaustion raises Unreachable", `Quick, test_source_client_unreachable);
    ("rejected query and range are not charged", `Quick, test_source_rejects_without_charging);
    ("faultnet durations: ms, s and seconds by default", `Quick, test_faultnet_duration_units);
  ]
