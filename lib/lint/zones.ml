(* The zones file: one declaration per line, [#] comments, and nothing
   else declares a zone (see DESIGN.md "Domain-safety zones"). *)

type zone = Engine_shared | Per_domain of string option | Init_only

let zone_name = function
  | Engine_shared -> "engine-shared"
  | Per_domain None -> "per-domain"
  | Per_domain (Some owner) -> "per-domain:" ^ owner
  | Init_only -> "init-only"

type decl = {
  d_key : string; d_sort : Inventory.sort; d_zone : zone; d_reason : string; d_file : string;
  d_line : int;
}

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
    let decl d_sort d_key d_zone d_reason =
      [ { d_key; d_sort; d_zone; d_reason; d_file = path; d_line = i + 1 } ]
    in
    match split [] (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)) with
    | [], _ -> []
    | w :: _, _ when String.starts_with ~prefix:"#" w -> []
    | [ sort; key; zone ], reason -> (
      let sort =
        match sort with
        | "value" -> Inventory.Value
        | "type" -> Inventory.Type
        | s -> fail (Printf.sprintf "unknown sort %S (want value|type)" s)
      in
      let owner = String.length "per-domain:" in
      match zone with
      | "engine-shared" -> decl sort key Engine_shared reason
      | "per-domain" -> decl sort key (Per_domain None) reason
      | "init-only" when Inventory.same_sort sort Type ->
        fail "init-only applies to values (a type's instances have no single init window)"
      | "init-only" -> decl sort key Init_only reason
      | z when String.starts_with ~prefix:"per-domain:" z && String.length z > owner ->
        decl sort key (Per_domain (Some (String.sub z owner (String.length z - owner)))) reason
      | _ -> fail
          (Printf.sprintf "unknown zone %S (want engine-shared | per-domain[:subtree] | init-only)"
             zone))
    | _ -> fail "want: <value|type> <Module.ident> <zone> [-- reason]"
  in
  List.concat (List.mapi parse (String.split_on_char '\n' content))

let find decls ~sort ~key =
  List.find_opt (fun d -> String.equal d.d_key key && Inventory.same_sort d.d_sort sort) decls
