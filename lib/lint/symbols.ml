(* A lightweight whole-program symbol table: one entry per compilation unit,
   no typer. Longident resolution is name-based — good enough because unit
   names are unique across this repo's libraries (checked at table build) —
   with [open]s and module aliases tracked per unit so both
   [Dr_engine.Metrics.bump] and a bare [Metrics.bump] under
   [open Dr_engine] resolve to the [Metrics] unit. *)

open Ppxlib

type unit_info = {
  path : string;  (* as given on the command line *)
  name : string;  (* "Metrics" for lib/engine/metrics.ml *)
  str : structure;
  intf : signature option;  (* the parsed .mli, when one exists *)
  aliases : (string * string list) list;  (* module M = Some.Path at unit top level *)
  submodules : string list;  (* top-level [module M = struct .. end] names *)
}

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let parse_intf ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  Ppxlib.Parse.interface lexbuf

let lident_parts txt = try Longident.flatten_exn txt with _ -> []

(* Top-level [module M = Longident] aliases (used to chase e.g.
   [module D = Dr_engine.Domain_safe] before resolving [D.Counter.incr]). *)
let aliases_of str =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> Some (m, lident_parts txt)
        | _ -> None)
      | _ -> None)
    str

let submodules_of str =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with Pmod_structure _ -> Some m | _ -> None)
      | _ -> None)
    str

let load ~parse ~read path =
  let str = parse ~path (read path) in
  let mli = path ^ "i" in
  let intf =
    if Sys.file_exists mli then
      try Some (parse_intf ~path:mli (read mli)) with _ -> None
    else None
  in
  {
    path;
    name = module_name_of_path path;
    str;
    intf;
    aliases = aliases_of str;
    submodules = submodules_of str;
  }

(* ------------------------------------------------------------------ *)
(* Resolution                                                         *)
(* ------------------------------------------------------------------ *)

type table = { units : unit_info String_table.t }

exception Clash of string

let table units =
  let tbl = String_table.create 64 in
  List.iter
    (fun u ->
      match String_table.find_opt tbl u.name with
      | Some other when not (String.equal other.path u.path) ->
        raise
          (Clash
             (Printf.sprintf
                "two compilation units named %s (%s, %s): name-based resolution would be \
                 ambiguous"
                u.name other.path u.path))
      | _ -> String_table.replace tbl u.name u)
    units;
  { units = tbl }

(* A library wrapper module (Dr_engine, Dr_core, ...): a path segment that
   merely namespaces the units of one dune library. *)
let is_wrapper part =
  String.length part > 3 && String.equal (String.sub part 0 3) "Dr_"

(* Resolve a longident path to (unit, path-inside-unit). Leading [Stdlib]
   and library wrappers are skipped; unit-local aliases are expanded one
   step. [self] is the unit the reference occurs in, so bare idents resolve
   to the unit's own top level. *)
let resolve t ~self parts =
  let expand parts =
    match parts with
    | head :: rest -> (
      match List.find_opt (fun (m, _) -> String.equal m head) self.aliases with
      | Some (_, target) -> target @ rest
      | None -> parts)
    | [] -> parts
  in
  let rec skip = function
    | "Stdlib" :: rest -> skip rest
    | part :: rest when is_wrapper part -> skip rest
    | parts -> parts
  in
  match skip (expand parts) with
  | head :: rest when String_table.mem t.units head -> Some (head, rest)
  | [ _ ] as bare -> Some (self.name, bare)  (* unqualified: the unit's own scope *)
  | head :: _ as parts when List.exists (String.equal head) self.submodules ->
    Some (self.name, parts)  (* into one of the unit's own nested modules *)
  | _ -> None
