(* dr_check: coverage-guided schedule model checker for the Download
   protocols.

   Examples:
     dr_check --protocol byz-2cycle --budget 50000 --seed 7
     dr_check --budget 2000 --seed 1 --stats stats.json --corpus corpus/
     dr_check --replay failure.repro.json

   Each protocol (every registry protocol unless --protocol names one) runs
   a coverage campaign: executions stream hashed (phase x event x
   round-bucket) signatures into a coverage map, a quarter of the budget
   seeds a corpus with random schedules over instance parameters, attack
   names from the registry catalog and crash plans, and the rest is spent on
   mutants of the schedules that lit up new signatures. Every violation of
   the invariant oracle (agreement / termination / spec-bound) is minimized
   to a locally minimal counterexample and can be written out as a
   replayable .repro.json file. --stats writes the deterministic campaign
   statistics JSON, --corpus the corpus directory.

   Exit codes: 0 no violations (or repro reproduced), 1 violations found
   (or repro diverged/vanished), 2 usage error. *)

open Cmdliner
module Check = Dr_check.Check
module Repro = Dr_check.Repro
module Registry = Dr_core.Registry
module Cli_args = Dr_cli.Cli_args

let protocol_arg = Cli_args.protocol_opt_arg ~extra:"Default: every registry protocol." ()

let budget_arg =
  Arg.(
    value
    & opt int 1000
    & info [ "budget" ] ~docv:"N" ~doc:"Executions to spend per protocol, at least 1 (default 1000).")

let seed_arg = Cli_args.seed_arg

let max_failures_arg =
  Arg.(
    value
    & opt int 5
    & info [ "max-failures" ] ~docv:"N"
        ~doc:"Stop collecting after this many shrunk counterexamples (default 5).")

let out_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Write each counterexample as DIR/<protocol>-<i>.repro.json.")

let corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Save each protocol's corpus under DIR/<protocol>/.")

let stats_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:"Write the campaign statistics (schema dr-campaign/1, one object per protocol \
              in a JSON array) to FILE.")

let replay_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay a .repro.json counterexample instead of checking; verify that the \
              recorded invariant fails at the recorded event index.")

let write_failures out name failures =
  match out with
  | None -> ()
  | Some dir ->
    List.iteri
      (fun i r ->
        let path = Filename.concat dir (Printf.sprintf "%s-%d.repro.json" name i) in
        Repro.write ~path r;
        Format.printf "  wrote %s@." path)
      failures

let run_replay path =
  match Repro.read path with
  | exception Failure msg -> `Error (false, msg)
  | repro ->
    Format.printf "replaying %a@." Repro.pp repro;
    (match Check.replay repro with
    | exception (Registry.Unknown_attack _ as e) ->
      `Error (false, Printexc.to_string e)
    | Check.Reproduced v ->
      Format.printf "reproduced: %a@." Dr_check.Invariant.pp_violation v;
      `Ok 0
    | Check.Diverged msg ->
      Format.printf "DIVERGED: %s@." msg;
      `Ok 1
    | Check.Vanished ->
      Format.printf "VANISHED: no invariant violated on replay@.";
      `Ok 1)

(* The outputs are opened before the first execution, so an unwritable
   path fails at once instead of after the whole campaign. *)
let run_campaign entries budget seed max_failures out corpus_dir stats =
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) corpus_dir;
  let stats_out = Option.map (fun path -> (path, open_out path)) stats in
  let total = ref 0 in
  let stats_objs = ref [] in
  List.iter
    (fun entry ->
      let target = Check.of_registry entry in
      let c = Check.campaign ~max_failures ~budget ~seed:(Int64.to_int seed) target in
      Format.printf "%a@." Check.pp_campaign c;
      write_failures out target.Check.name c.Check.failures;
      (match corpus_dir with
      | Some dir ->
        let sub = Filename.concat dir target.Check.name in
        Dr_check.Corpus.save c.Check.corpus ~dir:sub;
        Format.printf "  corpus: %s (%d entries)@." sub (Dr_check.Corpus.size c.Check.corpus)
      | None -> ());
      stats_objs := Check.campaign_stats_json c :: !stats_objs;
      total := !total + List.length c.Check.failures)
    entries;
  Option.iter
    (fun (path, oc) ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc "[\n";
          output_string oc (String.concat ",\n" (List.rev_map String.trim !stats_objs));
          output_string oc "\n]\n");
      Format.printf "  stats: %s@." path)
    stats_out;
  if !total = 0 then begin
    Format.printf "dr_check: no violations@.";
    `Ok 0
  end
  else begin
    Format.printf "dr_check: %d violation(s)@." !total;
    `Ok 1
  end

let run protocol budget seed max_failures out replay corpus stats =
  let entries =
    match protocol with
    | None -> Ok Registry.all
    | Some name -> (
      try Ok [ Cli_args.resolve_protocol name ] with Failure msg -> Error msg)
  in
  match (replay, entries) with
  | Some path, _ -> run_replay path
  | None, Error msg -> `Error (false, msg)
  | None, Ok _ when budget < 1 -> `Error (true, "--budget must be at least 1")
  | None, Ok entries -> (
    try run_campaign entries budget seed max_failures out corpus stats
    with Sys_error msg -> `Error (false, msg))

let cmd =
  Cmd.v
    (Cmd.info "dr_check"
       ~doc:"Coverage-guided schedule model checker with invariant oracle and counterexample \
             shrinking")
    Term.(
      ret
        (const run $ protocol_arg $ budget_arg $ seed_arg $ max_failures_arg $ out_arg
       $ replay_arg $ corpus_arg $ stats_arg))

let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit 0
  | Error `Parse | Error `Term -> exit 2
  | Error `Exn -> exit 2
