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

   dr_race reads the typed trees (.cmt/.cmti) the compiler writes, so
   build first (`dune build @check`); it refuses a PATH with fewer typed
   trees than .ml files. Run from the source root, a PATH is read from its
   copy under _build/default.

   Exit codes: 0 clean, 1 findings, 2 usage/IO error. *)

open Cmdliner
module Driver = Dr_lint.Driver
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
  print_endline
    "R1  domain zones: every escaping mutable cell/type carries a dr-race.zones declaration";
  print_endline
    "R2  cross-zone access: engine-shared via Domain_safe only; per-domain stays in its subtree; \
     init-only is never written post-init"

let default_zones = "dr-race.zones"

let built path =
  let copy = Filename.concat "_build/default" path in
  if Filename.is_relative path && Sys.file_exists copy then copy else path

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
    match Race_rules.analyze ?zones_path (List.map built paths) with
    | a when a.Race_rules.units_scanned < List.length (Driver.files_under paths) ->
      (* Some unit has no typed tree yet: a partial census would look clean. *)
      Format.eprintf "dr_race: %s has .ml files without typed trees (%d read); run dune build @check@."
        (String.concat " " paths) a.Race_rules.units_scanned;
      2
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
