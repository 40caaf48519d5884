(* The zones file: one declaration per line, [#] comments, and nothing
   else declares a zone (see DESIGN.md "Init-only state"). *)

type decl = { d_key : string; d_reason : string; d_file : string; d_line : int }

exception Parse_error of string

let parse_file ~path content =
  let parse i line =
    let fail msg = raise (Parse_error (Printf.sprintf "%s:%d: %s" path (i + 1) msg)) in
    (* The words before the reason separator ("--", or an em dash), then the reason. *)
    let rec split acc = function
      | ("--" | "\xe2\x80\x94") :: reason -> (List.rev acc, String.trim (String.concat " " reason))
      | w :: rest -> split (if String.length w > 0 then w :: acc else acc) rest
      | [] -> (List.rev acc, "")
    in
    match split [] (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)) with
    | [], _ -> []
    | w :: _, _ when String.starts_with ~prefix:"#" w -> []
    | [ "value"; d_key; "init-only" ], d_reason ->
      [ { d_key; d_reason; d_file = path; d_line = i + 1 } ]
    | [ "value"; _; zone ], _ -> fail (Printf.sprintf "unknown zone %S (want init-only)" zone)
    | [ sort; _; _ ], _ ->
      fail (Printf.sprintf "unknown sort %S (the census holds values only)" sort)
    | _ -> fail "want: value <Module.ident> init-only [-- reason]"
  in
  List.concat (List.mapi parse (String.split_on_char '\n' content))

let find decls ~key = List.find_opt (fun d -> String.equal d.d_key key) decls
