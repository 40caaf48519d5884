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

   A declaration can live inline instead, as a zone pragma directly above
   (or on) the declaring line — Pragma's directive comments, with
   [zone <zone> — reason] as the directive body. *)

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
  d_file : string;  (* zones file, or the .ml carrying the pragma *)
  d_line : int;
}

(* ------------------------------------------------------------------ *)
(* The zones file                                                     *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Inline zone pragmas                                                *)
(* ------------------------------------------------------------------ *)

(* An inline zone directive directly above (or on) the line of an
   inventoried declaration. Returns the matched declarations plus the
   pragma lines that matched nothing (stale — reported like unused
   pragmas). *)
let of_pragmas (u : Symbols.unit_info) (items : Inventory.item list) =
  let directives = Pragma.directives ~verb:"zone" u.source in
  let decls = ref [] and stale = ref [] in
  List.iter
    (fun (line, payload) ->
      let zone_s, reason =
        match String.index_opt payload ' ' with
        | Some i ->
          ( String.sub payload 0 i,
            String.trim (String.sub payload (i + 1) (String.length payload - i - 1)) )
        | None -> (payload, "")
      in
      let reason =
        (* payload already has the comment close stripped; drop a leading
           dash separator from the reason *)
        let r = reason in
        let drop p s =
          let np = String.length p and ns = String.length s in
          if ns >= np && String.equal (String.sub s 0 np) p then
            String.trim (String.sub s np (ns - np))
          else s
        in
        drop "\xe2\x80\x94" (drop "--" (drop "- " r))
      in
      match zone_of_string zone_s with
      | None -> stale := (line, Printf.sprintf "unknown zone %S" zone_s) :: !stale
      | Some zone -> (
        let covered =
          List.filter
            (fun (it : Inventory.item) ->
              String.equal it.path u.path && (it.line = line || it.line = line + 1))
            items
        in
        match covered with
        | [] -> stale := (line, "zone pragma covers no mutable declaration") :: !stale
        | covered ->
          List.iter
            (fun (it : Inventory.item) ->
              match (zone, it.sort) with
              | Init_only, Inventory.Type ->
                stale := (line, "init-only applies to values") :: !stale
              | _ ->
                decls :=
                  {
                    d_key = Inventory.key it;
                    d_sort = it.sort;
                    d_zone = zone;
                    d_reason = reason;
                    d_file = u.path;
                    d_line = line;
                  }
                  :: !decls)
            covered))
    directives;
  (List.rev !decls, List.rev !stale)

let find decls ~sort ~key =
  List.find_opt
    (fun d ->
      String.equal d.d_key key
      && (match (d.d_sort, sort) with
         | Inventory.Value, Inventory.Value | Inventory.Type, Inventory.Type -> true
         | _ -> false))
    decls
