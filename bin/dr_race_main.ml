(* dr_race: whole-program mutable-state inventory and domain-safety
   analysis — the machine-checked gate in front of any move to share a
   simulation across domains (deferred in ROADMAP).

   Examples:
     dr_race --check                 # R1-R2 over lib/ bin/ bench/
     dr_race --inventory             # dr-race/2 JSON census to stdout
     dr_race --check --format json   # findings as dr-lint/1 JSON lines
     dr_race --rules                 # print the rule catalogue

   Zone declarations come from dr-race.zones (see --zones) plus inline
   zone pragmas; a finding can be waived with an allow pragma directly
   above (or on) the line. See DESIGN.md "Domain-safety zones" for the
   syntax.

   Exit codes: 0 clean, 1 findings (or unused pragmas), 2 usage/IO error. *)

open Cmdliner
module Driver = Dr_lint.Driver
module Finding = Dr_lint.Finding
module Race_rules = Dr_lint.Race_rules

let paths_arg =
  Arg.(
    value & pos_all string [ "lib"; "bin"; "bench" ]
    & info [] ~docv:"PATH" ~doc:"Files or directories to analyze (default: lib bin bench).")

let inventory_arg =
  Arg.(
    value & flag
    & info [ "inventory" ] ~doc:"Print the mutable-state census as dr-race/2 JSON and exit.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ] ~doc:"Run the R1-R2 domain-safety rules (the default action).")

let zones_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "zones" ] ~docv:"FILE"
        ~doc:
          "Zone declarations file (default: dr-race.zones when it exists). Pass an explicit \
           path to require it.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Finding output format: $(b,text) or $(b,json).")

let rules_arg =
  Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule catalogue and exit.")

let print_rules () =
  List.iter
    (fun r -> Format.printf "%s  %s@." (Finding.rule_name r) (Finding.rule_doc r))
    Finding.race_rules

let default_zones = "dr-race.zones"

let run paths inventory _check zones format rules =
  if rules then begin
    print_rules ();
    0
  end
  else
    let zones_path =
      match zones with
      | Some _ as z -> z
      | None -> if Sys.file_exists default_zones then Some default_zones else None
    in
    match Race_rules.analyze ?zones_path paths with
    | a ->
      if inventory then begin
        print_string (Race_rules.inventory_json a);
        0
      end
      else begin
        (match format with
        | `Text -> Format.printf "%a" (Driver.pp_report) a.Race_rules.report
        | `Json -> Format.printf "%a" Driver.pp_report_json a.Race_rules.report);
        if Driver.clean a.Race_rules.report then 0 else 1
      end
    | exception Driver.Error msg ->
      Format.eprintf "dr_race: %s@." msg;
      2

let cmd =
  let doc = "whole-program mutable-state inventory & domain-safety analysis (rules R1-R2)" in
  Cmd.v
    (Cmd.info "dr_race" ~doc)
    Term.(
      const run $ paths_arg $ inventory_arg $ check_arg $ zones_arg $ format_arg $ rules_arg)

let () = exit (Cmd.eval' cmd)
