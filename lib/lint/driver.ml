(* Read files and walk trees: dr_race's plumbing. *)

exception Error of string

let read_file path =
  let ic = try open_in_bin path with Sys_error e -> raise (Error e) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Dune writes each unit's .cmt under a dot-directory (.dr_core.objs/byte,
   .main.eobjs/byte): those are walked, other dot-directories are not. *)
let skip_dir name =
  List.exists (String.equal name) [ "_build"; "lint_fixtures"; "race_fixtures" ]
  || (String.starts_with ~prefix:"." name && not (String.ends_with ~suffix:"objs" name))

let rec walk suffix acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc name -> if skip_dir name then acc else walk suffix acc (Filename.concat path name))
      acc (Sys.readdir path)
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let files_under ?(suffix = ".ml") roots =
  List.fold_left
    (fun acc root ->
      if Sys.file_exists root then walk suffix acc root
      else raise (Error ("no such file or directory: " ^ root)))
    [] roots
  |> List.sort_uniq String.compare
