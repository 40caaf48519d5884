(* dr_race: whole-program mutable-state inventory and domain-safety
   analysis — the machine-checked gate in front of any move to share a
   simulation across domains (deferred in ROADMAP).

   Examples:
     dr_race                         # R1-R2 over lib/ bin/ bench/
     dr_race --inventory             # dr-race/2 JSON census to stdout
     dr_race --rules                 # print the rule catalogue

   Zones are declared in dr-race.zones (see --zones) and nowhere else: a
   finding is cleared by fixing the code or by a zones-file entry. See
   DESIGN.md "Domain-safety zones" for the syntax.

   Exit codes: 0 clean, 1 findings, 2 usage/IO error. *)

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

let zones_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "zones" ] ~docv:"FILE"
        ~doc:
          "Zone declarations file (default: dr-race.zones when it exists). Pass an explicit \
           path to require it.")

let rules_arg =
  Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule catalogue and exit.")

let print_rules () =
  List.iter
    (fun r -> Format.printf "%s  %s@." (Finding.rule_name r) (Finding.rule_doc r))
    Finding.race_rules

let default_zones = "dr-race.zones"

let run paths inventory zones rules =
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
        Format.printf "%a" Race_rules.pp_report a;
        if List.is_empty a.Race_rules.findings then 0 else 1
      end
    | exception Driver.Error msg ->
      Format.eprintf "dr_race: %s@." msg;
      2

let cmd =
  let doc = "whole-program mutable-state inventory & domain-safety analysis (rules R1-R2)" in
  Cmd.v
    (Cmd.info "dr_race" ~doc)
    Term.(const run $ paths_arg $ inventory_arg $ zones_arg $ rules_arg)

let () = exit (Cmd.eval' cmd)
