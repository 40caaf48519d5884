(* dr_download: run one Download protocol on one instance and print the
   verdict and Q/T/M measures.

   Examples:
     dr_download -p crash-general -k 16 -n 4096 -t 5 --crash midcast:2 --latency jitter
     dr_download -p byz-committee -k 9 -n 1024 -t 4 --attack collude
     dr_download -p byz-2cycle -k 64 -n 8192 -t 8 --segments 4 --trace
     dr_download -p crash-general -k 8 -n 2048 -t 2 --transport net
     dr_download -p byz-committee --model byzantine -k 9 -n 512 -t 4 \
       --transport net --chaos 7:drop=0.05,corrupt=0.01,reply_loss=0.1 *)

open Cmdliner
open Dr_core
module Cli_args = Dr_cli.Cli_args

let protocol_arg = Cli_args.protocol_arg ~extra:"Or 'auto'." ~default:"auto" ()
let peers_arg = Arg.(value & opt int 8 & info [ "k"; "peers" ] ~docv:"K" ~doc:"Number of peers.")
let bits_arg = Arg.(value & opt int 1024 & info [ "n"; "bits" ] ~docv:"N" ~doc:"Input size in bits.")
let faults_arg = Arg.(value & opt int 2 & info [ "t"; "faults" ] ~docv:"T" ~doc:"Faulty peers.")

let model_arg =
  Arg.(
    value
    & opt (enum [ ("crash", Problem.Crash); ("byzantine", Problem.Byzantine) ]) Problem.Crash
    & info [ "model" ] ~doc:"Fault model: crash or byzantine.")

let seed_arg = Cli_args.seed_arg

let msg_bits_arg =
  Arg.(value & opt (some int) None & info [ "B"; "msg-bits" ] ~doc:"Message size bound in bits.")

let latency_arg = Cli_args.latency_arg ~default:"unit"
let crash_arg = Cli_args.crash_arg ~default:"midcast:1"
let attack_arg = Cli_args.attack_arg

let segments_arg =
  Arg.(value & opt (some int) None & info [ "segments" ] ~doc:"Segment count override (randomized protocols).")

let trace_arg = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full execution trace.")

let matrix_arg =
  Arg.(value & flag & info [ "matrix" ] ~doc:"Print the src->dst message matrix.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc:"Save the execution trace for dr_trace.")

let explore_arg =
  Arg.(value & opt (some int) None
       & info [ "explore" ] ~docv:"BUDGET"
           ~doc:"Instead of one run, DFS-explore up to BUDGET delivery schedules \
                 and report failures (keep k and n tiny).")

let transport_arg =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("net", `Net) ]) `Sim
    & info [ "transport" ]
        ~doc:"Runtime: 'sim' (the deterministic simulator) or 'net' (one OS process \
              per peer over loopback sockets, querying a real source server).")

let source_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "source" ] ~docv:"HOST:PORT"
        ~doc:"With --transport net: use an already-running dr_source_server instead \
              of spawning one in-process.")

let net_timeout_arg =
  Arg.(value & opt float 60.
       & info [ "net-timeout" ] ~docv:"SECONDS"
           ~doc:"With --transport net: wall-clock budget before stuck peers are killed.")

let chaos_arg = Cli_args.chaos_arg
let net_retries_arg = Cli_args.net_retries_arg
let request_timeout_arg = Cli_args.request_timeout_arg

let parse_source = function
  | None -> None
  | Some spec -> (
    match String.rindex_opt spec ':' with
    | Some i ->
      Some
        {
          Dr_net.Runner.host = String.sub spec 0 i;
          port = int_of_string (String.sub spec (i + 1) (String.length spec - i - 1));
        }
    | None -> failwith ("--source expects HOST:PORT, got " ^ spec))

let parse_chaos = function
  | None -> None
  | Some spec -> (
    match Dr_net.Faultnet.parse_seeded spec with
    | Ok (chaos_seed, plan) -> Some { Dr_net.Runner.chaos_seed; plan }
    | Error msg -> failwith ("--chaos: " ^ msg))

let client_config ~net_retries ~request_timeout =
  match (net_retries, request_timeout) with
  | None, None -> None
  | _ ->
    let d = Dr_net.Source_client.default_config in
    Some
      {
        Dr_net.Source_client.max_retries = Option.value net_retries ~default:d.max_retries;
        request_timeout = Option.value request_timeout ~default:d.request_timeout;
      }

let run_net ~entry ~attack ~segments ~crash ~source ~timeout ~chaos ~net_retries
    ~request_timeout inst =
  let core = entry.Registry.core ~attack ?segments inst in
  let crash = crash ~fault:inst.Problem.fault in
  Dr_net.Runner.run_counted ~timeout ?source:(parse_source source)
    ?chaos:(parse_chaos chaos)
    ?client_cfg:(client_config ~net_retries ~request_timeout)
    ~crash core inst

let pp_outcomes outcomes =
  Printf.printf "peers: %s\n"
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun i o -> Printf.sprintf "%d:%s" i (Dr_net.Runner.outcome_to_string o))
             outcomes)))

let run protocol k n t model seed msg_bits latency crash attack segments trace_flag matrix_flag
    trace_out explore transport source net_timeout chaos net_retries request_timeout =
  if t >= k then `Error (false, "need t < k")
  else if n < k then `Error (false, "need n >= k")
  else begin
    let inst = Problem.random_instance ~seed ?b:msg_bits ~model ~k ~n ~t () in
    (* Resolve the protocol once ("auto" picks by regime) and validate the
       attack against that entry, so the simulator, --explore and the net
       runtime all run the same entry with the same attack, and a typo is a
       usage error, not a crash. *)
    let resolved =
      match
        if String.equal protocol "auto" then Select.for_instance inst
        else Cli_args.resolve_protocol protocol
      with
      | entry -> Result.map (fun () -> entry) (Registry.validate_attack entry attack)
      | exception Failure msg -> Error msg
    in
    match (resolved, Cli_args.latency_fn latency, Cli_args.crash_plan crash) with
    | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> `Error (false, msg)
    | Ok entry, Ok latency, Ok crash ->
    match transport with
    | `Net ->
      if trace_flag || matrix_flag || trace_out <> None then
        `Error (false, "--trace/--matrix record simulator events; not available with --transport net")
      else if explore <> None then
        `Error (false, "--explore drives the simulator's schedule arbiter; not available with --transport net")
      else begin
        match
          run_net ~entry ~attack ~segments ~crash ~source ~timeout:net_timeout ~chaos
            ~net_retries ~request_timeout inst
        with
        | exception (Registry.Unknown_attack _ as e) -> `Error (false, Printexc.to_string e)
        | exception Dr_net.Source_client.Unreachable msg -> `Error (false, msg)
        | exception Failure msg -> `Error (false, msg)
        | report, outcomes, faults ->
          Format.printf "%a@." Problem.pp_report report;
          if chaos <> None then
            Printf.printf "faults: reconnects=%d replay_hits=%d retransmissions=%d corrupt_frames=%d\n"
              faults.Dr_net.Runner.reconnects faults.Dr_net.Runner.replay_hits
              faults.Dr_net.Runner.retransmissions faults.Dr_net.Runner.corrupt_frames;
          pp_outcomes outcomes;
          if report.Problem.ok then `Ok () else `Error (false, "download failed")
      end
    | `Sim ->
    let trace =
      if trace_flag || matrix_flag || trace_out <> None then Some (Dr_engine.Trace.create ())
      else None
    in
    let lat = latency ~seed ~fault:inst.Problem.fault ~b:inst.Problem.b in
    let opts = Exec.make_opts ~latency:lat ~crash:(crash ~fault:inst.Problem.fault) ?trace () in
    match explore with
    | Some budget ->
      let run_protocol ~arbiter =
        let opts = Exec.(opts |> with_arbiter arbiter |> without_trace) in
        (entry.Registry.run ~opts ~attack ?segments inst).Problem.ok
      in
      let r = Dr_engine.Explore.dfs ~budget ~run:run_protocol in
      Printf.printf "schedules explored: %d%s\n" r.Dr_engine.Explore.schedules_run
        (if r.Dr_engine.Explore.exhausted then " (space exhausted)" else " (DFS prefix)");
      Printf.printf "max depth:          %d events\n" r.Dr_engine.Explore.max_depth;
      Printf.printf "failing schedules:  %d\n" r.Dr_engine.Explore.failures;
      (match r.Dr_engine.Explore.first_failure with
      | Some script ->
        Printf.printf "first failure script: [%s]\n"
          (String.concat ";" (List.map string_of_int script))
      | None -> ());
      if r.Dr_engine.Explore.failures = 0 then `Ok () else `Error (false, "schedule failures")
    | None ->
    let report = entry.Registry.run ~opts ~attack ?segments inst in
    (match trace with
    | Some tr ->
      (match trace_out with
      | Some path -> Dr_engine.Trace.save tr path
      | None -> ());
      if trace_flag then Format.printf "%a@." Dr_engine.Trace.pp tr;
      if matrix_flag then begin
        Format.printf "%a@." (Dr_engine.Trace_stats.pp_matrix ~label:"msgs")
          (Dr_engine.Trace_stats.message_matrix tr ~k);
        match Dr_engine.Trace_stats.busiest_link (Dr_engine.Trace_stats.bits_matrix tr ~k) with
        | Some (src, dst, w) -> Format.printf "busiest link: %d -> %d (%d bits)@." src dst w
        | None -> ()
      end
    | None -> ());
    Format.printf "%a@." Problem.pp_report report;
    if report.Problem.ok then `Ok () else `Error (false, "download failed")
  end

let cmd =
  let term =
    Term.(
      ret
        (const run $ protocol_arg $ peers_arg $ bits_arg $ faults_arg $ model_arg $ seed_arg
       $ msg_bits_arg $ latency_arg $ crash_arg $ attack_arg $ segments_arg $ trace_arg
       $ matrix_arg $ trace_out_arg $ explore_arg $ transport_arg $ source_arg
       $ net_timeout_arg $ chaos_arg $ net_retries_arg $ request_timeout_arg))
  in
  Cmd.v
    (Cmd.info "dr_download" ~doc:"Run a distributed Download protocol in the simulator")
    term

let () = exit (Cmd.eval cmd)
