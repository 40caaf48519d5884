(* The protocol developed in TUTORIAL.md, verbatim: a fault-free pull-based
   gossip Download, written once against Transport.S and run on both
   runtimes — the deterministic simulator and k forked OS processes over
   loopback sockets. Exists so the tutorial's code is compiled, run and
   schedule-explored on every `dune runtest`.

   Run with:  dune exec examples/tutorial_gossip.exe *)

open Dr_core
module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment

type msg = Want of { seg : int } | Have of { seg : int; bits : Bitarray.t }

module Msg = struct
  type t = msg

  let size_bits = function Want _ -> 64 | Have { bits; _ } -> 64 + Bitarray.length bits

  let tag = function
    | Want { seg } -> Printf.sprintf "want(%d)" seg
    | Have { seg; _ } -> Printf.sprintf "have(%d)" seg
end

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run inst i =
    let n = Problem.n inst in
    let spec = Segment.make ~n ~s:(min inst.Problem.k n) in
    let y = Bitarray.create n in
    let have = Array.make spec.Segment.s false in
    (* Query my own segment and announce it. *)
    let pos, len = Segment.bounds spec i in
    Bitarray.blit ~src:(T.query_range ~pos ~len) ~dst:y ~pos;
    have.(i) <- true;
    T.broadcast (Want { seg = (i + 1) mod spec.Segment.s });
    let missing = ref (spec.Segment.s - 1) in
    (* [on] only records what to send, newest first: a reply to [Some dst],
       or a broadcast ([None]). The loop body sends it. *)
    let outbox = ref [] in
    let on src = function
      | Want { seg } ->
        if have.(seg) then
          outbox := (Some src, Have { seg; bits = Segment.extract spec y seg }) :: !outbox
      | Have { seg; bits } ->
        if not have.(seg) then begin
          have.(seg) <- true;
          decr missing;
          Bitarray.blit ~src:bits ~dst:y ~pos:(Segment.start spec seg);
          outbox := (None, Want { seg = (seg + 1) mod spec.Segment.s }) :: !outbox
        end
    in
    while !missing > 0 do
      T.await ~ready:(fun () -> (not (List.is_empty !outbox)) || !missing = 0) ~on;
      List.iter
        (function Some dst, m -> T.send dst m | None, m -> T.broadcast m)
        (List.rev !outbox);
      outbox := []
    done;
    (* Termination flood: without this, a peer that finishes early stops
       serving pull requests and a late requester starves — the simulator's
       deadlock detector catches it immediately (try deleting these lines
       and running the schedule explorer below). The paper's protocols end
       the same way (Claim 2). *)
    for seg = 0 to spec.Segment.s - 1 do
      T.broadcast (Have { seg; bits = Segment.extract spec y seg })
    done;
    y
end

let core () : (module Transport.CORE) =
  (module struct
    let name = "lazy-gossip"

    module Msg = Msg
    module Process = Process
  end)

let run ?opts inst = Exec.run_core ?opts (core ()) inst

let () =
  (* A jittered asynchronous run with serialized links. *)
  let inst = Problem.random_instance ~seed:1L ~k:8 ~n:1024 ~t:0 () in
  let opts =
    Exec.default
    |> Exec.with_latency (Dr_adversary.Latency.jittered (Dr_engine.Prng.create 2L))
    |> Exec.with_link_rate 1024.
  in
  let report = run ~opts inst in
  Format.printf "%a@." Problem.pp_report report;
  assert report.Problem.ok;

  (* Every delivery schedule of a tiny instance. *)
  let tiny = Problem.random_instance ~seed:2L ~k:3 ~n:3 ~t:0 () in
  let r =
    Dr_engine.Explore.dfs ~budget:3_000 ~run:(fun ~arbiter ->
        (run ~opts:(Exec.with_arbiter arbiter Exec.default) tiny).Problem.ok)
  in
  Printf.printf "schedule exploration: %d schedules, %d failures%s\n"
    r.Dr_engine.Explore.schedules_run r.Dr_engine.Explore.failures
    (if r.Dr_engine.Explore.exhausted then " (exhausted)" else " (prefix)");
  assert (r.Dr_engine.Explore.failures = 0);

  (* And the same core as 8 real OS processes over loopback, querying a TCP
     source server. Only schedule-invariant fields are comparable with the
     simulator run: the verdict and the query counts. *)
  let net = Dr_net.Runner.run ~timeout:30. (core ()) inst in
  Format.printf "%a@." Problem.pp_report net;
  assert net.Problem.ok;
  assert (net.Problem.q_total = report.Problem.q_total)
