(* dr_race: census the typed trees (Inventory), read the zones (Zones), check
   R1 over both and R2 over every write to an init-only cell. A finding is
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

(* Init contexts for init-only cells: module initialization itself, plus
   functions whose name says they run during setup. *)
let init_like = function
  | None -> true
  | Some fn ->
    List.exists (fun prefix -> String.starts_with ~prefix fn)
      [ "init"; "create"; "make"; "setup"; "of_" ]

(* R1: every escaping item is declared init-only, and each declaration
   names a census item, once. *)
let r1_findings ~zones_path items decls cells =
  let undeclared (it : Inventory.item) =
    let key = Inventory.key it in
    if (not it.escaping) || Option.is_some (Zones.find decls ~key) then None
    else
      Some
        (finding ~file:it.path ~line:it.line ~col:it.col R1
           "escaping mutable value `%s` (%s) is not declared init-only in %s; declare it or \
            keep it behind the unit's interface"
           key (Inventory.kind_name it.kind) (Option.value zones_path ~default:"dr-race.zones"))
  in
  let bad_decl (d : Zones.decl) =
    let at fmt = finding ~file:d.d_file ~line:d.d_line ~col:0 R1 fmt in
    (if String_table.mem cells d.d_key then []
     else [ at "stale zone declaration: census has no value named %s" d.d_key ])
    @
    match Zones.find decls ~key:d.d_key with
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

(* R2 over one unit: an init-only cell is written only during init, from
   whichever unit writes it. Reads are free. *)
let r2_findings decls cells (u : Inventory.unit_info) =
  let found = ref [] and fn = ref None and depth = ref 0 in
  let written ~write e =
    let check (cell : Inventory.item) =
      let key = Inventory.key cell and at = e.exp_loc.loc_start in
      if Option.is_some (Zones.find decls ~key) && write cell.kind && !depth > 0
         && not (init_like !fn)
      then
        found :=
          finding ~file:u.path ~line:at.pos_lnum ~col:(at.pos_cnum - at.pos_bol) R2
            "init-only cell %s written after initialization (in %s)" key
            (Option.value !fn ~default:"?")
          :: !found
    in
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
      Option.iter check (String_table.find_opt cells (String.concat "." (u.parts p)))
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let expr (sub : Tast_iterator.iterator) e =
    match e.exp_desc with
    | Texp_setfield (b, _, _, _) ->
      written ~write:(fun _ -> true) b;
      default.expr sub e
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
      let write kind = List.exists (String.equal (Path.last p)) (mutators kind) in
      List.iter (fun (_, a) -> Option.iter (written ~write) a) args;
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
  (* The census by key: "Wire.Crc32.table". *)
  List.iter (fun it -> String_table.replace cells (Inventory.key it) it) items;
  let findings =
    r1_findings ~zones_path items decls cells @ List.concat_map (r2_findings decls cells) units
  in
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
    let key = Inventory.key it in
    Printf.sprintf "\n    { \"key\": %s, \"kind\": \"%s\", \"zone\": %s, \"escaping\": %b }"
      (str key) (Inventory.kind_name it.kind)
      (if Option.is_some (Zones.find a.decls ~key) then "\"init-only\"" else "null")
      it.escaping
  in
  Printf.sprintf "{\n  \"schema\": \"dr-race/3\",\n  \"units\": %d,\n  \"values\": [%s\n  ]\n}\n"
    a.units_scanned
    (String.concat "," (List.sort String.compare (List.map row a.items)))
