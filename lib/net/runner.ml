module Problem = Dr_core.Problem
module Transport = Dr_core.Transport
module Bitarray = Dr_source.Bitarray
module Prng = Dr_engine.Prng
module Metrics = Dr_engine.Metrics
module Sim = Dr_engine.Sim

type source = { host : string; port : int }
type chaos = { chaos_seed : int64; plan : Faultnet.plan }

type outcome =
  | Completed
  | Crashed
  | Link_lost
  | Source_unreachable
  | Timed_out
  | Corrupt_frame
  | Failed of string

let outcome_to_string = function
  | Completed -> "completed"
  | Crashed -> "crashed"
  | Link_lost -> "link-lost"
  | Source_unreachable -> "source-unreachable"
  | Timed_out -> "timed-out"
  | Corrupt_frame -> "corrupt-frame"
  | Failed msg -> "failed(" ^ msg ^ ")"

type child_result = {
  output : Bitarray.t option;
  meter : Metrics.t option;  (** [None] when the peer failed before running *)
  retrans : int;
  corrupt_rx : int;
  reconnects : int;
  outcome : outcome;
}

let failed_result outcome =
  { output = None; meter = None; retrans = 0; corrupt_rx = 0; reconnects = 0; outcome }

(* Classify a peer-fatal exception into the failure taxonomy. Injected
   crashes and voluntary halts are expected protocol behaviour; everything
   else names the infrastructure component that gave out. *)
let classify = function
  | Net_transport.Crashed | Sim.Halted -> Crashed
  | Net_transport.Link_lost -> Link_lost
  | Source_client.Unreachable _ -> Source_unreachable
  | Frame.Corrupt _ | Frame.Desync _ -> Corrupt_frame
  | e -> Failed (Printexc.to_string e)

(* Restart syscalls interrupted by signals (the parent gets SIGCHLD-adjacent
   noise from k children; a stray signal must not abort supervision). *)
let rec eintr f = match f () with v -> v | exception Unix.Unix_error (Unix.EINTR, _, _) -> eintr f

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let listener () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 64;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  (fd, port)

(* Full-mesh setup for peer [me]: connect to every lower peer (announcing
   ourselves with a Hello frame), accept one connection from every higher
   peer (learning who from its Hello). Connects never deadlock against
   accepts: the kernel completes handshakes out of the listen backlog. *)
let build_mesh ~me ~k ~listeners ~ports =
  let links = Array.make k None in
  Array.iteri (fun j fd -> if j <> me then close_quietly fd) listeners;
  for j = 0 to me - 1 do
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    eintr (fun () -> Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(j))));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Frame.send_value fd (me : int);
    links.(j) <- Some fd
  done;
  for _ = me + 1 to k - 1 do
    let fd, _ = eintr (fun () -> Unix.accept listeners.(me)) in
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    match (Frame.recv_value fd : int) with
    | j when j > me && j < k && Option.is_none links.(j) -> links.(j) <- Some fd
    | _ -> failwith "mesh handshake violation"
  done;
  close_quietly listeners.(me);
  links

let child_main (module C : Transport.CORE) ~inst ~me ~host ~source_port ~listeners ~ports
    ~crash_spec ~chaos ~client_cfg =
  let k = inst.Problem.k in
  let injector =
    match chaos with
    | Some { chaos_seed; plan } when not (Faultnet.is_none plan) ->
      Some (Faultnet.make ~seed:chaos_seed ~peer:me plan)
    | _ -> None
  in
  let source =
    Source_client.connect ~host ~port:source_port ~peer:me ~cfg:client_cfg ?chaos:injector ()
  in
  let links = build_mesh ~me ~k ~listeners ~ports in
  let env =
    Net_transport.make_env ~me ~k ~links ~source
      ~prng:(Prng.for_peer inst.Problem.seed me)
      ~crash:crash_spec ?chaos:injector ()
  in
  Net_transport.start_receivers env;
  let module T =
    Net_transport.Make
      (C.Msg)
      (struct
        let env = env
      end)
  in
  let module P = C.Process (T) in
  let output, outcome =
    match P.run inst me with
    | y -> (Some y, Completed)
    | exception e -> (None, classify e)
  in
  let c = env.Net_transport.counters in
  let result =
    {
      output;
      meter = Some env.Net_transport.meter;
      retrans = c.Net_transport.retrans;
      corrupt_rx = c.Net_transport.corrupt_rx;
      reconnects = Source_client.reconnects source;
      outcome;
    }
  in
  Array.iter (function Some fd -> close_quietly fd | None -> ()) links;
  Source_client.close source;
  result

(* Supervise the k result pipes until every child has reported, died, or the
   deadline passed. A child that exits without reporting surfaces as an
   immediate pipe EOF — classified via [waitpid], not waited out. *)
let collect_results ~k ~deadline ~pids read_ends =
  let results = Array.make k None in
  let pending = ref (Array.to_list (Array.mapi (fun i fd -> (i, fd)) read_ends)) in
  let now = Unix.gettimeofday in
  let dead_without_report i =
    match eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pids.(i)) with
    | 0, _ -> Failed "peer process died without reporting"
    | _, Unix.WSIGNALED sg -> Failed (Printf.sprintf "peer process killed by signal %d" sg)
    | _, Unix.WEXITED code when code <> 0 ->
      Failed (Printf.sprintf "peer process exited with code %d" code)
    | _, _ -> Failed "peer process died without reporting"
    | exception Unix.Unix_error _ -> Failed "peer process died without reporting"
  in
  while (not (List.is_empty !pending)) && Fl.(now () < deadline) do
    let fds = List.map snd !pending in
    let wait =
      let left = deadline -. now () in
      if Fl.(0.01 >= left) then 0.01 else left
    in
    let ready, _, _ = eintr (fun () -> Unix.select fds [] [] wait) in
    pending :=
      List.filter
        (fun (i, fd) ->
          (* A Unix file descriptor is an int: physical equality is equality. *)
          if List.memq fd ready then begin
            (match (Frame.recv_value fd : child_result) with
            | r -> results.(i) <- Some r
            | exception _ -> results.(i) <- Some (failed_result (dead_without_report i)));
            false
          end
          else true)
        !pending
  done;
  results

type fault_counters = {
  reconnects : int;
  replay_hits : int;
  retransmissions : int;
  corrupt_frames : int;
}

let run_counted ?(timeout = 60.) ?source ?(crash = Dr_adversary.Crash_plan.none) ?chaos
    ?(client_cfg = Source_client.default_config) (module C : Transport.CORE) inst =
  let k = inst.Problem.k in
  let crash_specs =
    Array.init k (fun i ->
        match crash i with
        | Sim.At_time _ ->
          failwith "net transport does not support At_time crash plans"
        | spec -> spec)
  in
  (* Sends to a peer that already exited surface as EPIPE on the writer;
     without this the default SIGPIPE disposition would kill the process. *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let t0 = Unix.gettimeofday () in
  let server, host, source_port =
    match source with
    | Some { host; port } -> (None, host, port)
    | None ->
      let s = Source_server.create ~k inst.Problem.x in
      Source_server.start s;
      (Some s, "127.0.0.1", Source_server.port s)
  in
  let control =
    Source_client.connect ~host ~port:source_port ~peer:Source_proto.control_peer
      ~cfg:client_cfg ()
  in
  (* Stats are deltas so an external long-running server works too. *)
  let base_stats, _, base_replays = Source_client.stats control in
  let listeners_ports = Array.init k (fun _ -> listener ()) in
  let listeners = Array.map fst listeners_ports in
  let ports = Array.map snd listeners_ports in
  let pipes = Array.init k (fun _ -> Unix.pipe ()) in
  let pids =
    Array.init k (fun i ->
        match Unix.fork () with
        | 0 ->
          (* Child: runs the peer process and ships one result frame back.
             [_exit], not [exit]: flushing channels inherited from the
             parent would duplicate its buffered output. *)
          Array.iteri
            (fun j (r, w) ->
              close_quietly r;
              if j <> i then close_quietly w)
            pipes;
          (try
             let result =
               try
                 child_main
                   (module C)
                   ~inst ~me:i ~host ~source_port ~listeners ~ports
                   ~crash_spec:crash_specs.(i) ~chaos ~client_cfg
               with e -> failed_result (classify e)
             in
             Frame.send_value (snd pipes.(i)) result
           with _ -> ());
          Unix._exit 0
        | pid -> pid)
  in
  Array.iter close_quietly listeners;
  Array.iter (fun (_, w) -> close_quietly w) pipes;
  let read_ends = Array.map fst pipes in
  let results = collect_results ~k ~deadline:(t0 +. timeout) ~pids read_ends in
  Array.iter close_quietly read_ends;
  Array.iter
    (fun pid ->
      match eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (eintr (fun () -> Unix.waitpid [] pid))
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
    pids;
  let final_stats, _, final_replays = Source_client.stats control in
  (match server with
  | Some s ->
    Source_client.shutdown control;
    Source_server.stop s
  | None -> ());
  Source_client.close control;
  let time = Unix.gettimeofday () -. t0 in
  ignore (Sys.signal Sys.sigpipe prev_sigpipe);
  let outcomes =
    Array.init k (fun i ->
        match results.(i) with Some r -> r.outcome | None -> Timed_out)
  in
  (* Report errors that are neither injected crashes nor voluntary halts. *)
  Array.iteri
    (fun i o ->
      match o with
      | Failed e ->
        (* A child process died unexpectedly: stderr is the only channel left. *)
        (Printf.eprintf [@alert "-l3"]) "dr_net: peer %d failed: %s\n%!" i e
      | _ -> ())
    outcomes;
  (* One meter for the run: the peers' own, added up. Q is then set to
     the server's per-peer delta, the authoritative count (its replay cache
     charges a retried request once). *)
  let meter = Metrics.create k in
  Array.iter (function Some { meter = Some m; _ } -> Metrics.add meter m | _ -> ()) results;
  for i = 0 to k - 1 do
    Metrics.on_query meter i ~bits:(final_stats.(i) - base_stats.(i) - Metrics.queries meter i)
  done;
  let honest = Problem.honest inst in
  let timed_out = List.filter (fun i -> honest i && Option.is_none results.(i)) (List.init k Fun.id) in
  let report =
    Dr_core.Exec.finish ~protocol:C.name inst
      {
        Sim.outputs =
          Array.map
            (function Some { output = Some y; _ } -> Some (time, y) | Some _ | None -> None)
            results;
        metrics = meter;
        status = (if List.is_empty timed_out then Sim.Completed else Sim.Deadlock timed_out);
        end_time = time;
        events = 0;
      }
  in
  let sum f = Array.fold_left (fun acc r -> match r with Some r -> acc + f r | None -> acc) 0 results in
  let counters =
    {
      reconnects = sum (fun r -> r.reconnects);
      replay_hits = final_replays - base_replays;
      retransmissions = sum (fun r -> r.retrans);
      corrupt_frames = sum (fun r -> r.corrupt_rx);
    }
  in
  (report, outcomes, counters)

let run_detailed ?timeout ?source ?crash ?chaos ?client_cfg core inst =
  let report, outcomes, _ = run_counted ?timeout ?source ?crash ?chaos ?client_cfg core inst in
  (report, outcomes)

let run ?timeout ?source ?crash ?chaos ?client_cfg core inst =
  fst (run_detailed ?timeout ?source ?crash ?chaos ?client_cfg core inst)
