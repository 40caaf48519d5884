(* Read and parse sources, walk trees: dr_race's plumbing. *)

exception Error of string

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  try Ppxlib.Parse.implementation lexbuf
  with exn ->
    raise (Error (Printf.sprintf "%s: parse error (%s)" path (Printexc.to_string exn)))

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
