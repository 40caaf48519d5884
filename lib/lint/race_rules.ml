(* dr_race: census the typed trees (Inventory), read the zones (Zones), check
   R1 over both and R2 over every access to a census cell. A finding is
   cleared by fixing the code or by a zones-file entry, never per site. *)

open Typedtree

type rule = R1 | R2

let rule_name = function R1 -> "R1" | R2 -> "R2"

type finding = { file : string; line : int; col : int; rule : rule; msg : string }

let finding ~file ~line ~col rule fmt =
  Printf.ksprintf (fun msg -> { file; line; col; rule; msg }) fmt

type analysis = {
  units_scanned : int; items : Inventory.item list; decls : Zones.decl list;
  findings : finding list;
}

let path_under ~owner path =
  let segs p = List.filter (fun s -> not (List.exists (String.equal s) [ ""; "."; ".." ])) p in
  let rec prefix = function
    | [], _ -> true
    | x :: a, y :: b -> String.equal x y && prefix (a, b)
    | _ :: _, [] -> false
  in
  prefix (segs (String.split_on_char '/' owner), segs (String.split_on_char '/' path))

(* Init contexts for init-only cells: module initialization itself, plus
   functions whose name says they run during setup. *)
let init_like = function
  | None -> true
  | Some fn ->
    List.exists (fun prefix -> String.starts_with ~prefix fn)
      [ "init"; "create"; "make"; "setup"; "of_" ]

(* Constructor-shaped idents, for the construction confinement of types. *)
let constructor_like name =
  List.exists (String.equal name) [ "empty"; "copy"; "load" ] || init_like (Some name)

(* R1: every escaping item has a zone, and each zone names a census item, once. *)
let r1_findings ~zones_path items decls cells =
  let undeclared (it : Inventory.item) =
    let key = Inventory.key it in
    if (not it.escaping) || Option.is_some (Zones.find decls ~sort:it.sort ~key) then None
    else
      Some
        (finding ~file:it.path ~line:it.line ~col:it.col R1
           "escaping mutable %s `%s` (%s) has no domain zone; declare it in %s"
           (Inventory.sort_name it.sort) key (Inventory.kind_name it.kind)
           (Option.value zones_path ~default:"dr-race.zones"))
  in
  let bad_decl (d : Zones.decl) =
    let at fmt = finding ~file:d.d_file ~line:d.d_line ~col:0 R1 fmt in
    let sort = Inventory.sort_name d.d_sort in
    (if String_table.mem cells (sort ^ " " ^ d.d_key) then []
     else [ at "stale zone declaration: census has no %s named %s" sort d.d_key ])
    @
    match Zones.find decls ~sort:d.d_sort ~key:d.d_key with
    | Some e when e.d_line < d.d_line ->
      [ at "duplicate zone declaration for %s (first at %s:%d)" d.d_key e.d_file e.d_line ]
    | _ -> []
  in
  List.filter_map undeclared items @ List.concat_map bad_decl decls

(* A call writes a cell it is given when the function's name is a mutator
   of the cell's kind ([replace] of any hashtbl, [set] of an array, [:=] of
   a ref); so does a field assignment. Any other use reads it: the repo
   idiom passes cells to their own module's accessors, seen separately. *)
let mutators : Inventory.kind -> string list = function
  | Ref -> [ ":="; "incr"; "decr" ]
  | Hashtbl_t -> [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]
  | Queue_t -> [ "add"; "push"; "pop"; "take"; "take_opt"; "clear"; "transfer" ]
  | Stack_t -> [ "push"; "pop"; "pop_opt"; "clear"; "drop" ]
  | Buffer_t ->
    [ "add_char"; "add_string"; "add_bytes"; "add_substring"; "add_subbytes"; "add_buffer";
      "add_channel"; "clear"; "reset"; "truncate" ]
  | Array_t ->
    [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "fast_sort"; "stable_sort"; "shuffle" ]
  | Bytes_t -> [ "set"; "unsafe_set"; "fill"; "blit"; "blit_string" ]
  | Atomic_t -> [ "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr"; "decr" ]
  | Mutable_record | Mutex_t -> []

(* R2 over one unit: only its own unit and Domain_safe touch an engine-shared
   cell, only its owner subtree a per-domain one (or builds a per-domain
   type), and an init-only cell is written only during init. A write is
   checked as a read too; [analyze] drops the repeated finding. *)
let r2_findings decls cells (u : Inventory.unit_info) =
  let found = ref [] and fn = ref None and depth = ref 0 in
  let r2 (loc : Location.t) fmt =
    let line = loc.loc_start.pos_lnum and col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol in
    Printf.ksprintf (fun msg -> found := { file = u.path; line; col; rule = R2; msg } :: !found) fmt
  in
  let access ~write e =
    let check (cell : Inventory.item) =
      let key = Inventory.key cell and here = [ cell.unit_name; "Domain_safe" ] in
      let inside = Inventory.guarded cell.kind || List.exists (String.equal u.name) here in
      match Option.map (fun (d : Zones.decl) -> d.d_zone) (Zones.find decls ~sort:Value ~key) with
      | Some Engine_shared when not inside ->
        r2 e.exp_loc
          "engine-shared cell %s accessed directly from %s; go through the Domain_safe wrapper" key
          u.name
      | Some (Per_domain (Some owner)) when not (path_under ~owner u.path) ->
        r2 e.exp_loc "per-domain cell %s (owner %s) referenced from %s" key owner u.path
      | Some Init_only when write cell.kind && !depth > 0 && not (init_like !fn) ->
        r2 e.exp_loc "init-only cell %s written after initialization (in %s)" key
          (Option.value !fn ~default:"?")
      | _ -> ()
    in
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
      Option.iter check (String_table.find_opt cells ("value " ^ String.concat "." (u.parts p)))
    | _ -> ()
  in
  let reference loc p =
    match u.parts p with
    | r_unit :: rest when not (String.equal u.name r_unit) ->
      let r_ident = match rest with i :: _ -> i | [] -> "" in
      let check (d : Zones.decl) =
        match (d.d_sort, d.d_zone, String_table.find_opt cells ("type " ^ d.d_key)) with
        | Type, Per_domain (Some owner), Some it
          when String.equal r_unit it.unit_name && constructor_like r_ident
               && not (path_under ~owner u.path) ->
          r2 loc "per-domain type %s (owner %s) constructed outside its subtree (%s.%s)" d.d_key
            owner r_unit r_ident
        | _ -> ()
      in
      List.iter check decls
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let expr (sub : Tast_iterator.iterator) e =
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
      reference e.exp_loc p;
      access ~write:(fun _ -> false) e
    | Texp_setfield (b, _, _, _) ->
      access ~write:(fun _ -> true) b;
      default.expr sub e
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
      let write kind = List.exists (String.equal (Path.last p)) (mutators kind) in
      List.iter (fun (_, a) -> Option.iter (access ~write) a) args;
      default.expr sub e
    | Texp_function _ ->
      incr depth;
      default.expr sub e;
      decr depth
    | _ -> default.expr sub e
  in
  (* The enclosing module-level binding names the context of a write. *)
  let structure_item (sub : Tast_iterator.iterator) it =
    match it.str_desc with
    | Tstr_value (_, vbs) ->
      let bind vb =
        fn := (match let_bound_idents [ vb ] with [ id ] -> Some (Ident.name id) | _ -> None);
        sub.value_binding sub vb;
        fn := None
      in
      List.iter bind vbs
    | _ -> default.structure_item sub it
  in
  let iter = { default with expr; structure_item } in
  iter.structure iter u.str;
  !found

let analyze ?zones_path roots =
  let units, items = Inventory.load roots in
  let decls =
    match zones_path with
    | Some p when not (Sys.file_exists p) -> raise (Driver.Error ("zones file not found: " ^ p))
    | Some p -> (
      try Zones.parse_file ~path:p (Driver.read_file p)
      with Zones.Parse_error m -> raise (Driver.Error m))
    | None -> []
  in
  let cells = String_table.create 64 in
  (* The census by sort and key: "value Wire.Crc32.table", "type Metrics.t". *)
  let add (it : Inventory.item) =
    String_table.replace cells (Inventory.sort_name it.sort ^ " " ^ Inventory.key it) it
  in
  List.iter add items;
  let findings = r1_findings ~zones_path items decls cells 
                 @ List.concat_map (r2_findings decls cells) units in
  let order a b =
    let c = String.compare a.file b.file in
    let c = if c <> 0 then c else Int.compare a.line b.line in
    let c = if c <> 0 then c else Int.compare a.col b.col in
    let c = if c <> 0 then c else String.compare (rule_name a.rule) (rule_name b.rule) in
    if c <> 0 then c else String.compare a.msg b.msg
  in
  { units_scanned = List.length units; items; decls; findings = List.sort_uniq order findings }

let pp_report ppf a =
  let pp f = Format.fprintf ppf "%s:%d:%d [%s] %s@." f.file f.line f.col (rule_name f.rule) f.msg in
  List.iter pp a.findings;
  let n = List.length a.findings and s k = if k = 1 then "" else "s" in
  Format.fprintf ppf "dr_race: %d file%s scanned, %d finding%s@." a.units_scanned
    (s a.units_scanned) n (s n)

(* The census holds no source positions, so it changes only when the state
   itself does: items sorted by key (each row starts with it). *)
let inventory_json a =
  let str s =
    let esc c =
      if Char.code c < 0x20 || String.contains "\"\\" c then Printf.sprintf "\\u%04x" (Char.code c)
      else String.make 1 c
    in
    "\"" ^ String.concat "" (List.map esc (List.of_seq (String.to_seq s))) ^ "\""
  in
  let row (it : Inventory.item) =
    let zone = Zones.find a.decls ~sort:it.sort ~key:(Inventory.key it) in
    Printf.sprintf
      "{ \"key\": %s, \"kind\": \"%s\", \"zone\": %s, \"escaping\": %b, \"guarded\": %b }"
      (str (Inventory.key it)) (Inventory.kind_name it.kind)
      (match zone with Some d -> str (Zones.zone_name d.d_zone) | None -> "null")
      it.escaping (Inventory.guarded it.kind)
  in
  let section sort =
    let rows = List.filter (fun it -> Inventory.same_sort it.Inventory.sort sort) a.items in
    Printf.sprintf "  \"%ss\": [%s\n  ]" (Inventory.sort_name sort)
      (String.concat "," (List.map (( ^ ) "\n    ") (List.sort String.compare (List.map row rows))))
  in
  Printf.sprintf "{\n  \"schema\": \"dr-race/2\",\n  \"units\": %d,\n%s,\n%s\n}\n" a.units_scanned
    (section Value) (section Type)
