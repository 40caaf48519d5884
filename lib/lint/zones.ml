(* Domain-safety zone declarations.

   The checked-in [dr-race.zones] file assigns every escaping mutable
   cell/type in the census to one of three zones:

     engine-shared   accessed only via the Domain_safe wrapper (Atomic /
                     Mutex guarded); the only state that may cross domains
     per-domain      one instance per domain; with an owner subtree
                     ([per-domain:lib/check]) the cell may only be
                     referenced from under that subtree
     init-only       written during setup, read-only afterward (values
                     only: verified by the write-reachability check)

   One declaration per line:

     value Bitarray.popcount_byte init-only -- precomputed byte table
     type  Metrics.t per-domain -- each domain owns its counter block
     type  Coverage.t per-domain:lib/check -- campaign-local maps

   Nothing else declares a zone: a comment in a source file declares
   nothing. *)

type zone = Engine_shared | Per_domain of string option | Init_only

let zone_name = function
  | Engine_shared -> "engine-shared"
  | Per_domain None -> "per-domain"
  | Per_domain (Some owner) -> "per-domain:" ^ owner
  | Init_only -> "init-only"

let zone_of_string s =
  match s with
  | "engine-shared" -> Some Engine_shared
  | "per-domain" -> Some (Per_domain None)
  | "init-only" -> Some Init_only
  | _ ->
    let prefix = "per-domain:" in
    let np = String.length prefix in
    if String.length s > np && String.equal (String.sub s 0 np) prefix then
      Some (Per_domain (Some (String.sub s np (String.length s - np))))
    else None

type decl = {
  d_key : string;  (* "Metrics.t", "Bitarray.popcount_byte" *)
  d_sort : Inventory.sort;
  d_zone : zone;
  d_reason : string;
  d_file : string;  (* the zones file *)
  d_line : int;
}

let split_words line =
  List.filter (fun s -> String.length s > 0) (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line))

(* "value Key zone -- reason": words before the reason separator, then the
   free-text reason. *)
let split_reason line =
  let seps = [ " -- "; " \xe2\x80\x94 " ] in
  let rec find = function
    | [] -> (line, "")
    | sep :: rest -> (
      let nl = String.length line and ns = String.length sep in
      let rec go i =
        if i + ns > nl then None
        else if String.equal (String.sub line i ns) sep then Some i
        else go (i + 1)
      in
      match go 0 with
      | Some i -> (String.sub line 0 i, String.trim (String.sub line (i + ns) (nl - i - ns)))
      | None -> find rest)
  in
  find seps

exception Parse_error of string

let parse_file ~path content =
  let decls = ref [] in
  let fail line msg = raise (Parse_error (Printf.sprintf "%s:%d: %s" path line msg)) in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let body, reason = split_reason line in
      let body = String.trim body in
      if String.length body = 0 || Char.equal body.[0] '#' then ()
      else
        match split_words body with
        | [ sort_s; key; zone_s ] -> (
          let sort =
            match sort_s with
            | "value" -> Inventory.Value
            | "type" -> Inventory.Type
            | s -> fail lineno (Printf.sprintf "unknown sort %S (want value|type)" s)
          in
          match zone_of_string zone_s with
          | None ->
            fail lineno
              (Printf.sprintf "unknown zone %S (want engine-shared | per-domain[:subtree] | init-only)"
                 zone_s)
          | Some Init_only when (match sort with Inventory.Type -> true | Inventory.Value -> false) ->
            fail lineno "init-only applies to values (a type's instances have no single init window)"
          | Some zone ->
            decls :=
              { d_key = key; d_sort = sort; d_zone = zone; d_reason = reason; d_file = path; d_line = lineno }
              :: !decls)
        | _ -> fail lineno "want: <value|type> <Module.ident> <zone> [-- reason]")
    (String.split_on_char '\n' content);
  List.rev !decls

let find decls ~sort ~key =
  List.find_opt
    (fun d ->
      String.equal d.d_key key
      && (match (d.d_sort, sort) with
         | Inventory.Value, Inventory.Value | Inventory.Type, Inventory.Type -> true
         | _ -> false))
    decls
