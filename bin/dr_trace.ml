(* dr_trace: offline analysis of saved execution traces.

   Produce a trace with `dr_download --trace-out FILE`, then:
     dr_trace FILE --summary
     dr_trace FILE --matrix
     dr_trace FILE --peer 3
     dr_trace FILE --queries 3 *)

open Cmdliner
module Trace = Dr_engine.Trace
module Trace_stats = Dr_engine.Trace_stats

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file to analyse.")

let summary_arg = Arg.(value & flag & info [ "summary" ] ~doc:"Event counts and time span.")
let matrix_arg = Arg.(value & flag & info [ "matrix" ] ~doc:"src->dst message and bit matrices.")
let peer_arg = Arg.(value & opt (some int) None & info [ "peer" ] ~doc:"Timeline of one peer.")
let queries_arg = Arg.(value & opt (some int) None & info [ "queries" ] ~doc:"Query list of one peer.")
let lanes_arg = Arg.(value & flag & info [ "lanes" ] ~doc:"Time-space lane view (small traces).")

let infer_k events =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Trace.Sent { src; dst; _ } | Trace.Delivered { src; dst; _ } -> max acc (max src dst + 1)
      | Trace.Queried { peer; _ } | Trace.Crashed { peer; _ } | Trace.Terminated { peer; _ } ->
        max acc (peer + 1)
      | Trace.Deadlocked { blocked; _ } ->
        List.fold_left (fun acc p -> max acc (p + 1)) acc blocked)
    0 events

let summary trace =
  let events = Trace.events trace in
  let count p = List.length (List.filter p events) in
  let time_of = function
    | Trace.Sent { time; _ }
    | Trace.Delivered { time; _ }
    | Trace.Queried { time; _ }
    | Trace.Crashed { time; _ }
    | Trace.Terminated { time; _ }
    | Trace.Deadlocked { time; _ } ->
      time
  in
  let span =
    List.fold_left (fun (lo, hi) ev -> (min lo (time_of ev), max hi (time_of ev)))
      (infinity, neg_infinity) events
  in
  Printf.printf "events:       %d\n" (List.length events);
  Printf.printf "peers:        %d\n" (infer_k events);
  Printf.printf "sends:        %d\n" (count (function Trace.Sent _ -> true | _ -> false));
  Printf.printf "deliveries:   %d\n" (count (function Trace.Delivered _ -> true | _ -> false));
  Printf.printf "queries:      %d\n" (count (function Trace.Queried _ -> true | _ -> false));
  Printf.printf "crashes:      %d\n" (count (function Trace.Crashed _ -> true | _ -> false));
  Printf.printf "terminations: %d\n" (count (function Trace.Terminated _ -> true | _ -> false));
  if events <> [] then Printf.printf "time span:    [%.3f, %.3f]\n" (fst span) (snd span)

let run file summary_flag matrix_flag peer queries lanes =
  let trace = Trace.load file in
  let events = Trace.events trace in
  let k = infer_k events in
  let nothing_asked =
    (not summary_flag) && (not matrix_flag) && (not lanes) && peer = None && queries = None
  in
  if summary_flag || nothing_asked then summary trace;
  if matrix_flag then begin
    Format.printf "%a@." (Trace_stats.pp_matrix ~label:"msgs") (Trace_stats.message_matrix trace ~k);
    Format.printf "%a@." (Trace_stats.pp_matrix ~label:"bits") (Trace_stats.bits_matrix trace ~k)
  end;
  (match peer with
  | Some p ->
    List.iter (fun ev -> Format.printf "%a@." Trace.pp_event ev) (Trace.events_of_peer trace p)
  | None -> ());
  (match queries with
  | Some p ->
    List.iter (fun (i, v) -> Printf.printf "X[%d] = %b\n" i v) (Trace.query_view trace p)
  | None -> ());
  if lanes then Format.printf "%a" (fun ppf tr -> Trace_stats.pp_lanes ~k ppf tr) trace;
  `Ok ()

let cmd =
  Cmd.v
    (Cmd.info "dr_trace" ~doc:"Analyse a saved execution trace")
    Term.(ret (const run $ file_arg $ summary_arg $ matrix_arg $ peer_arg $ queries_arg $ lanes_arg))

let () = exit (Cmd.eval cmd)
