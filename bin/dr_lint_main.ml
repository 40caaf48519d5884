(* dr_lint: the repo's monomorphic-compare linter.

   Examples:
     dr_lint                     # lint lib/
     dr_lint lib/stats           # lint one subtree
     dr_lint --rules             # print the rule catalogue

   Parses every .ml into the Parsetree and checks rule L2 (see DESIGN.md
   "Static invariants"); the name bans L1, L3, L4 and L5 are compiler
   alerts, checked by the build itself. A finding can be deliberately
   waived with a comment directly above the line, of the form

     dr-lint: allow L2 — the operands are ints

   wrapped in ordinary comment parens.

   Exit codes: 0 clean, 1 findings (or unused pragmas), 2 usage/IO error. *)

open Cmdliner
module Driver = Dr_lint.Driver
module Finding = Dr_lint.Finding

let paths_arg =
  Arg.(
    value & pos_all string [ "lib" ]
    & info [] ~docv:"PATH" ~doc:"Files or directories to lint (default: lib).")

let rules_arg =
  Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule catalogue and exit.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print findings only, no summary line.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Finding output format: $(b,text) or $(b,json) (dr-lint/1 JSON lines).")

let print_rules () =
  List.iter
    (fun r -> Format.printf "%s  %s@." (Finding.rule_name r) (Finding.rule_doc r))
    [ Finding.L2 ]

let run paths rules quiet format =
  if rules then begin
    print_rules ();
    0
  end
  else
    match Driver.lint_paths paths with
    | report ->
      (match format with
      | `Json -> Format.printf "%a" Driver.pp_report_json report
      | `Text ->
        if quiet then
          List.iter
            (fun fr -> List.iter (Format.printf "%a@." Finding.pp) fr.Driver.findings)
            report.Driver.files
        else Format.printf "%a" Driver.pp_report report);
      if Driver.clean report then 0 else 1
    | exception Driver.Error msg ->
      Format.eprintf "dr_lint: %s@." msg;
      2

let cmd =
  let doc = "AST-level monomorphic-compare linter (rule L2)" in
  Cmd.v
    (Cmd.info "dr_lint" ~doc)
    Term.(const run $ paths_arg $ rules_arg $ quiet_arg $ format_arg)

let () = exit (Cmd.eval' cmd)
