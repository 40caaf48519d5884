(* The mutable-state inventory: a purely syntactic census of every
   module-level mutable value and every mutable type declaration in a
   compilation unit.

   Module-level values are [let]-bound cells at structure level (including
   nested [module M = struct .. end], excluding functor bodies — functor
   state is per-application). A binding counts when its right-hand side
   visibly constructs mutable storage ([ref e], [Hashtbl.create], [[| .. |]],
   ...), directly or under a [let]-chain whose result is a closure (the
   memo-table idiom: the closure captures the cell, so the cell is still
   module-level state).

   Type declarations count when they have a [mutable] field or mention a
   mutable constructor ([array], [Hashtbl.t], [ref], ...) anywhere in their
   definition: instances are exactly the state the domain-sharding refactor
   must partition, so they belong in the census even though each value is
   caller-owned. *)

open Ppxlib

type kind =
  | Ref
  | Hashtbl_t
  | Queue_t
  | Stack_t
  | Buffer_t
  | Array_t
  | Bytes_t
  | Mutable_record
  | Atomic_t
  | Mutex_t

let kind_name = function
  | Ref -> "ref"
  | Hashtbl_t -> "hashtbl"
  | Queue_t -> "queue"
  | Stack_t -> "stack"
  | Buffer_t -> "buffer"
  | Array_t -> "array"
  | Bytes_t -> "bytes"
  | Mutable_record -> "mutable-record"
  | Atomic_t -> "atomic"
  | Mutex_t -> "mutex"

(* Atomic/Mutex-bearing state is already guarded; it still must be zoned
   (engine-shared, normally), but R2's "must go through Domain_safe" check
   does not apply to the wrapper types themselves. *)
let guarded = function Atomic_t | Mutex_t -> true | _ -> false

type sort = Value | Type

let sort_name = function Value -> "value" | Type -> "type"

type item = {
  unit_name : string;
  path : string;
  modpath : string list;  (* nested module path inside the unit *)
  ident : string;
  sort : sort;
  kind : kind;
  line : int;
  col : int;
  escaping : bool;
}

let key it = String.concat "." ((it.unit_name :: it.modpath) @ [ it.ident ])

let compare_item a b =
  let c = String.compare a.path b.path in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else String.compare (key a) (key b)

(* ------------------------------------------------------------------ *)
(* Identifier helpers                                                 *)
(* ------------------------------------------------------------------ *)

let lident_parts txt = try Longident.flatten_exn txt with _ -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

(* ------------------------------------------------------------------ *)
(* Value classification                                               *)
(* ------------------------------------------------------------------ *)

let array_makers = [ "make"; "init"; "create_float"; "make_matrix"; "copy"; "of_list"; "append" ]
let bytes_makers = [ "create"; "make"; "init"; "of_string"; "copy" ]

let creator_of_head parts =
  match parts with
  | [ "ref" ] -> Some Ref
  | [ "Hashtbl"; "create" ] -> Some Hashtbl_t
  | [ "Queue"; "create" ] -> Some Queue_t
  | [ "Stack"; "create" ] -> Some Stack_t
  | [ "Buffer"; "create" ] -> Some Buffer_t
  | [ "Array"; f ] when List.exists (String.equal f) array_makers -> Some Array_t
  | [ "Bytes"; f ] when List.exists (String.equal f) bytes_makers -> Some Bytes_t
  | [ "Atomic"; "make" ] -> Some Atomic_t
  | [ "Mutex"; "create" ] -> Some Mutex_t
  | _ -> None

let is_function e = match e.pexp_desc with Pexp_function _ -> true | _ -> false

(* Does this module-level right-hand side construct mutable storage? *)
let rec classify_value_rhs e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> classify_value_rhs e
  | Pexp_array _ -> Some Array_t
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    creator_of_head (strip_stdlib (lident_parts txt))
  | Pexp_let (_, bindings, body) when is_function body ->
    (* let cell = Hashtbl.create .. in fun x -> ..: the closure captures the
       cell; the binding is module-level mutable state under another name. *)
    List.find_map (fun vb -> classify_value_rhs vb.pvb_expr) bindings
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Type classification                                                *)
(* ------------------------------------------------------------------ *)

let constr_kind parts =
  match parts with
  | [ "array" ] | [ "Array"; "t" ] | [ "Float"; "Array"; "t" ] | [ "floatarray" ] -> Some Array_t
  | [ "bytes" ] | [ "Bytes"; "t" ] -> Some Bytes_t
  | [ "ref" ] -> Some Ref
  | [ "Hashtbl"; "t" ] -> Some Hashtbl_t
  | [ "Queue"; "t" ] -> Some Queue_t
  | [ "Stack"; "t" ] -> Some Stack_t
  | [ "Buffer"; "t" ] -> Some Buffer_t
  | [ "Atomic"; "t" ] -> Some Atomic_t
  | [ "Mutex"; "t" ] | [ "Condition"; "t" ] -> Some Mutex_t
  | _ -> None

(* All mutable constructors mentioned anywhere inside a core type. *)
let constrs_folder =
  object
    inherit [kind list] Ast_traverse.fold as super

    method! core_type ct acc =
      let acc =
        match ct.ptyp_desc with
        | Ptyp_constr ({ txt; _ }, _) -> (
          match constr_kind (strip_stdlib (lident_parts txt)) with
          | Some k -> k :: acc
          | None -> acc)
        | _ -> acc
      in
      super#core_type ct acc
  end

let constrs_of_core acc ct = constrs_folder#core_type ct acc

let classify_type_decl (td : type_declaration) =
  let mutable_field =
    match td.ptype_kind with
    | Ptype_record fields ->
      List.exists (fun f -> match f.pld_mutable with Mutable -> true | Immutable -> false) fields
    | _ -> false
  in
  if mutable_field then Some Mutable_record
  else begin
    let constrs =
      let from_manifest =
        match td.ptype_manifest with Some ct -> constrs_of_core [] ct | None -> []
      in
      let from_kind =
        match td.ptype_kind with
        | Ptype_record fields ->
          List.concat_map (fun f -> constrs_of_core [] f.pld_type) fields
        | Ptype_variant cds ->
          List.concat_map
            (fun cd ->
              match cd.pcd_args with
              | Pcstr_tuple cts -> List.concat_map (constrs_of_core []) cts
              | Pcstr_record fields ->
                List.concat_map (fun f -> constrs_of_core [] f.pld_type) fields)
            cds
        | _ -> []
      in
      from_manifest @ from_kind
    in
    (* Guarded wrappers first: a record of {queue; mutex; condition} is a
       guarded structure, not a bare queue. *)
    let priority = [ Atomic_t; Mutex_t; Hashtbl_t; Queue_t; Stack_t; Buffer_t; Array_t; Bytes_t; Ref ] in
    List.find_opt
      (fun k -> List.exists (fun c -> String.equal (kind_name c) (kind_name k)) constrs)
      priority
  end

(* ------------------------------------------------------------------ *)
(* Escape analysis (against the .mli, when present)                   *)
(* ------------------------------------------------------------------ *)

let sig_names (sg : signature) =
  let values = ref [] and types = ref [] in
  let folder =
    object
      inherit [unit] Ast_traverse.fold as super

      method! signature_item item () =
        (match item.psig_desc with
        | Psig_value vd -> values := vd.pval_name.txt :: !values
        | Psig_type (_, tds) ->
          List.iter (fun td -> types := td.ptype_name.txt :: !types) tds
        | _ -> ());
        super#signature_item item ()
    end
  in
  folder#signature sg ();
  (!values, !types)

(* ------------------------------------------------------------------ *)
(* The census pass                                                    *)
(* ------------------------------------------------------------------ *)

let of_unit (u : Symbols.unit_info) : item list =
  let exported_values, exported_types =
    match u.intf with
    | None -> (None, None)  (* no .mli: everything escapes *)
    | Some sg ->
      let vs, ts = sig_names sg in
      (Some vs, Some ts)
  in
  let escapes exported name =
    match exported with None -> true | Some names -> List.exists (String.equal name) names
  in
  let acc = ref [] in
  let add ~modpath ~loc ~sort ~kind ident =
    let start = loc.Location.loc_start in
    acc :=
      {
        unit_name = u.name;
        path = u.path;
        modpath;
        ident;
        sort;
        kind;
        line = start.Lexing.pos_lnum;
        col = start.Lexing.pos_cnum - start.Lexing.pos_bol;
        escaping =
          (match sort with
          | Value -> escapes exported_values ident
          | Type -> escapes exported_types ident);
      }
      :: !acc
  in
  let rec walk_structure modpath str =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; loc } | Ppat_constraint ({ ppat_desc = Ppat_var { txt; loc }; _ }, _)
                -> (
                match classify_value_rhs vb.pvb_expr with
                | Some kind -> add ~modpath ~loc ~sort:Value ~kind txt
                | None -> ())
              | _ -> ())
            bindings
        | Pstr_type (_, tds) ->
          List.iter
            (fun td ->
              match classify_type_decl td with
              | Some kind ->
                add ~modpath ~loc:td.ptype_name.loc ~sort:Type ~kind td.ptype_name.txt
              | None -> ())
            tds
        | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_structure str -> walk_structure (modpath @ [ m ]) str
          | _ -> ()  (* aliases carry no state; functor state is per-application *))
        | _ -> ())
      str
  in
  walk_structure [] u.str;
  List.sort compare_item !acc
