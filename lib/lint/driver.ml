(* Parse, apply pragmas, walk trees, print reports: dr_race's plumbing. *)

exception Error of string

type file_report = {
  path : string;
  findings : Finding.t list;  (* after pragma suppression, sorted *)
  suppressed : (Finding.t * Pragma.t) list;
  unused_pragmas : Pragma.t list;
}

type report = {
  files : file_report list;
  files_scanned : int;
  total_findings : int;
  total_suppressed : int;
}

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  try Ppxlib.Parse.implementation lexbuf
  with exn ->
    raise (Error (Printf.sprintf "%s: parse error (%s)" path (Printexc.to_string exn)))

let apply_pragmas ~path ~pragmas raw =
  let findings, suppressed =
    List.partition_map
      (fun f ->
        match List.find_opt (fun p -> Pragma.covers p f) pragmas with
        | None -> Either.Left f
        | Some p -> Either.Right (f, p))
      raw
  in
  let unused_pragmas =
    List.filter (fun p -> not (List.exists (fun (_, q) -> q == p) suppressed)) pragmas
  in
  { path; findings = List.sort Finding.compare findings; suppressed; unused_pragmas }

let read_file path =
  let ic = try open_in_bin path with Sys_error e -> raise (Error e) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Tree walking                                                       *)
(* ------------------------------------------------------------------ *)

let skip_dir name =
  String.equal name "_build"
  || String.equal name "lint_fixtures"
  || String.equal name "race_fixtures"
  || (String.length name > 0 && Char.equal name.[0] '.')

let is_ml name =
  Filename.check_suffix name ".ml"
  (* an .mli is read with its .ml (Symbols.load), not walked on its own *)

let rec walk acc path =
  if Sys.is_directory path then
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        if skip_dir name then acc else walk acc (Filename.concat path name))
      acc entries
  else if is_ml path then path :: acc
  else acc

let files_under roots =
  let files =
    List.fold_left
      (fun acc root ->
        if not (Sys.file_exists root) then
          raise (Error (Printf.sprintf "no such file or directory: %s" root))
        else walk acc root)
      [] roots
  in
  (* One global byte-order sort (plus dedup for overlapping roots): the walk
     already visits each directory in sorted order, but reports must be
     byte-identical no matter how roots were spelled or what order the
     filesystem hands entries back in. *)
  List.sort_uniq String.compare files

let report_of_file_reports reports =
  let files =
    List.filter
      (fun r ->
        not
          (List.is_empty r.findings
          && List.is_empty r.suppressed
          && List.is_empty r.unused_pragmas))
      (List.sort (fun a b -> String.compare a.path b.path) reports)
  in
  {
    files;
    files_scanned = List.length reports;
    total_findings = List.fold_left (fun n r -> n + List.length r.findings) 0 files;
    total_suppressed = List.fold_left (fun n r -> n + List.length r.suppressed) 0 files;
  }

let pp_report ppf r =
  List.iter
    (fun fr ->
      List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) fr.findings;
      List.iter
        (fun p ->
          Format.fprintf ppf "%s:%d: unused pragma (allow %s) — nothing to suppress@." fr.path
            p.Pragma.line
            (Finding.rule_name p.Pragma.rule))
        fr.unused_pragmas)
    r.files;
  Format.fprintf ppf "dr_race: %d file%s scanned, %d finding%s, %d suppressed by pragma@."
    r.files_scanned
    (if r.files_scanned = 1 then "" else "s")
    r.total_findings
    (if r.total_findings = 1 then "" else "s")
    r.total_suppressed

(* Machine-readable findings: one dr-lint/1 JSON object per line (findings
   and unused pragmas only — the summary lives in the exit code). *)
let pp_report_json ppf r =
  List.iter
    (fun fr ->
      List.iter (fun f -> Format.fprintf ppf "%s@." (Finding.to_json f)) fr.findings;
      List.iter
        (fun p ->
          Format.fprintf ppf
            "{\"schema\": \"%s\", \"kind\": \"unused-pragma\", \"file\": \"%s\", \"line\": %d, \
             \"rule\": \"%s\"}@."
            Finding.json_schema
            (Finding.json_escape fr.path)
            p.Pragma.line
            (Finding.rule_name p.Pragma.rule))
        fr.unused_pragmas)
    r.files

let clean r =
  r.total_findings = 0 && List.for_all (fun fr -> List.is_empty fr.unused_pragmas) r.files
