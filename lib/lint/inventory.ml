(* The mutable-state census, read off the typed trees (.cmt, .cmti) the
   compiler writes. A module-level value (of the unit or a nested structure;
   functor state is per-application) counts by the head of its type: a
   mutable stdlib container, a table type a [Hashtbl]/[Weak]/[Ephemeron]
   [Make] made, or a record type with a mutable field; so does a closure over
   such a cell (the memo-table idiom). Types are not counted: each instance
   belongs to whoever built it. *)

open Typedtree

type kind =
  | Ref | Hashtbl_t | Queue_t | Stack_t | Buffer_t | Array_t | Bytes_t | Mutable_record | Atomic_t
  | Mutex_t

let kind_name = function
  | Ref -> "ref" | Hashtbl_t -> "hashtbl" | Queue_t -> "queue" | Stack_t -> "stack"
  | Buffer_t -> "buffer" | Array_t -> "array" | Bytes_t -> "bytes"
  | Mutable_record -> "mutable-record" | Atomic_t -> "atomic" | Mutex_t -> "mutex"

type item = {
  unit_name : string; path : string; modpath : string list; ident : string;
  kind : kind; line : int; col : int; escaping : bool;
}

let key it = String.concat "." ((it.unit_name :: it.modpath) @ [ it.ident ])

type unit_info = { path : string; name : string; str : structure; parts : Path.t -> string list }

let rec strip m = match m.mod_desc with Tmod_constraint (m, _, _, _) -> strip m | _ -> m

(* [f] on each structure item with its module path, into nested and
   included structures. *)
let rec walk f modpath str =
  let into modpath m =
    match (strip m).mod_desc with Tmod_structure s -> walk f modpath s | _ -> ()
  in
  let item it =
    f modpath it;
    match it.str_desc with
    | Tstr_module { mb_id = Some id; mb_expr; _ } -> into (modpath @ [ Ident.name id ]) mb_expr
    | Tstr_include { incl_mod; _ } -> into modpath incl_mod
    | _ -> ()
  in
  List.iter item str.str_items

let builtin parts =
  match List.rev parts with
  | ("array" | "floatarray") :: _ | "t" :: "Array" :: _ -> Some Array_t
  | "bytes" :: _ | "t" :: "Bytes" :: _ -> Some Bytes_t
  | "ref" :: _ -> Some Ref
  | "t" :: m :: _ ->
    List.find_map (fun (n, k) -> if String.equal n m then Some k else None)
      [ ("Hashtbl", Hashtbl_t); ("Queue", Queue_t); ("Stack", Stack_t); ("Buffer", Buffer_t);
        ("Atomic", Atomic_t); ("Mutex", Mutex_t); ("Condition", Mutex_t) ]
  | _ -> None

let table_functor parts =
  match List.rev parts with
  | ("Make" | "MakeSeeded") :: rest ->
    List.exists (fun m -> List.exists (String.equal m) rest) [ "Hashtbl"; "Weak"; "Ephemeron" ]
  | _ -> false

let mutable_record = function
  | Ttype_record lds ->
    List.exists (fun ld -> match ld.ld_mutable with Mutable -> true | _ -> false) lds
  | _ -> false

(* The values of a signature, as ["M.x"], ["M.N.y"]. *)
let rec exports prefix sg =
  let export : Types.signature_item -> string list = function
    | Sig_value (id, _, _) -> [ prefix ^ Ident.name id ]
    | Sig_module (id, _, { md_type = Mty_signature s; _ }, _, _) ->
      exports (prefix ^ Ident.name id ^ ".") s
    | _ -> []
  in
  List.concat_map export sg

let read path =
  try Cmt_format.read_cmt path with _ -> raise (Driver.Error (path ^ ": unreadable .cmt"))

let load roots =
  let cmts = List.map (fun f -> (f, read f)) (Driver.files_under ~suffix:".cmt" roots) in
  let source (c : Cmt_format.cmt_infos) = Option.value c.cmt_sourcefile ~default:"" in
  let unit_name c = String.capitalize_ascii Filename.(remove_extension (basename (source c))) in
  (* Each compiled module's name in paths: a unit's own ("Dr_core__Wire" ->
     "Wire"), and none for dune's generated alias units (dr_core.ml-gen),
     which only name the units of a library and are not scanned. *)
  let names = String_table.create 64 in
  let name (_, (c : Cmt_format.cmt_infos)) =
    let unit = Filename.check_suffix (source c) ".ml" in
    String_table.replace names c.cmt_modname (if unit then [ unit_name c ] else []);
    unit
  in
  let cmts = List.filter name cmts in
  (* The tree's own mutable heads: each table type a functor makes ("M.t"
     for [module M = Hashtbl.Make (K)]) and each record with a mutable field. *)
  let heads = String_table.create 64 and units = String_table.create 64 in
  (* A path's components, unit first: a library wrapper drops out, the
     unit's own names and nested modules get the unit's name, and a module
     alias becomes its target. *)
  let resolver name str =
    let locals = ref Ident.Map.empty in
    let rec parts = function
      | Path.Pident id when Ident.Map.mem id !locals -> Ident.Map.find id !locals
      | Pident id when Ident.persistent id ->
        Option.value (String_table.find_opt names (Ident.name id)) ~default:[ Ident.name id ]
      | Pident id -> [ Ident.name id ]
      | Pdot (p, s) -> parts p @ [ s ]
      | Papply (p, _) | Pextra_ty (p, _) -> parts p
    in
    let item mp it =
      let add id p = locals := Ident.Map.add id p !locals in
      let here id = (name :: mp) @ [ Ident.name id ] in
      let head names = String_table.replace heads (String.concat "." ((name :: mp) @ names)) in
      let made names m =
        match (strip m).mod_desc with
        | Tmod_apply (f, _, _) -> (
          match (strip f).mod_desc with
          | Tmod_ident (p, _) when table_functor (parts p) -> head (names @ [ "t" ]) Hashtbl_t
          | _ -> ())
        | _ -> ()
      in
      match it.str_desc with
      | Tstr_value (_, vbs) -> List.iter (fun id -> add id (here id)) (let_bound_idents vbs)
      | Tstr_type (_, tds) ->
        let decl td =
          add td.typ_id (here td.typ_id);
          if mutable_record td.typ_kind then head [ td.typ_name.txt ] Mutable_record
        in
        List.iter decl tds
      | Tstr_module { mb_id = Some id; mb_expr; _ } ->
        made [ Ident.name id ] mb_expr;
        add id (match (strip mb_expr).mod_desc with Tmod_ident (p, _) -> parts p | _ -> here id)
      | Tstr_include { incl_mod; _ } -> made [] incl_mod
      | _ -> ()
    in
    walk item [] str;
    parts
  in
  let load_unit (f, (c : Cmt_format.cmt_infos)) =
    let name = unit_name c and path = source c in
    let clash other = Driver.Error (Printf.sprintf "two units named %s (%s, %s)" name other path) in
    Option.iter (fun other -> raise (clash other)) (String_table.find_opt units name);
    String_table.replace units name path;
    match c.cmt_annots with
    | Implementation str ->
      (* What escapes: the .mli, or all of the unit when it has none. *)
      let sg =
        let cmti = Filename.remove_extension f ^ ".cmti" in
        match if Sys.file_exists cmti then (read cmti).cmt_annots else c.cmt_annots with
        | Interface s -> s.sig_type
        | _ -> str.str_type
      in
      ({ path; name; str; parts = resolver name str }, sg)
    | _ -> raise (Driver.Error (f ^ ": the unit did not type-check"))
  in
  let units = List.map load_unit cmts in
  let kind_of u p =
    let parts = u.parts p in
    match builtin parts with None -> String_table.find_opt heads (String.concat "." parts) | k -> k
  in
  let rec value_kind u e =
    match (e.exp_desc, Types.get_desc e.exp_type) with
    | Texp_let (_, vbs, { exp_desc = Texp_function _; _ }), _ ->
      List.find_map (fun vb -> value_kind u vb.vb_expr) vbs
    | _, Tconstr (p, _, _) -> kind_of u p
    | _ -> None
  in
  let census (u, sg) =
    let items = ref [] and exported = exports (u.name ^ ".") sg in
    let add modpath ident (loc : Location.t) =
      let key = String.concat "." ((u.name :: modpath) @ [ ident ]) in
      let escaping = List.exists (String.equal key) exported in
      let line = loc.loc_start.pos_lnum and col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol in
      let item kind =
        { unit_name = u.name; path = u.path; modpath; ident; kind; line; col; escaping }
      in
      Option.iter (fun kind -> items := item kind :: !items)
    in
    let value mp vb =
      match let_bound_idents_full [ vb ] with
      | [ (id, { loc; _ }, _) ] -> add mp (Ident.name id) loc (value_kind u vb.vb_expr)
      | _ -> ()
    in
    let item mp it =
      match it.str_desc with Tstr_value (_, vbs) -> List.iter (value mp) vbs | _ -> ()
    in
    walk item [] u.str;
    !items
  in
  let items = List.concat_map census units in
  (List.map fst units, List.sort (fun a b -> String.compare (key a) (key b)) items)
