(* dr_race: the whole-program domain-safety analysis.

   Pipeline: parse every unit (Symbols) -> census mutable state
   (Inventory) -> resolve cross-module accesses (Refgraph) -> load the
   zones file (Zones) -> apply R1/R2 -> one sorted list of findings. A
   finding is cleared by fixing the code or by a zones-file entry; there
   is no per-site waiver. *)

type analysis = {
  units_scanned : int;
  items : Inventory.item list;
  decls : Zones.decl list;
  findings : Finding.t list;
}

(* ------------------------------------------------------------------ *)
(* Path zones                                                         *)
(* ------------------------------------------------------------------ *)

let segs_of path =
  List.filter
    (fun s -> String.length s > 0 && not (String.equal s ".") && not (String.equal s ".."))
    (String.split_on_char '/' path)

let path_under ~owner path =
  let rec prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a, y :: b -> String.equal x y && prefix a b
    | _ :: _, [] -> false
  in
  prefix (segs_of owner) (segs_of path)

(* Init contexts for init-only cells: module initialization itself, plus
   functions whose name says they run during setup. *)
let init_like = function
  | None -> true
  | Some fn ->
    let prefixes = [ "init"; "create"; "make"; "setup"; "of_" ] in
    List.exists
      (fun p ->
        let np = String.length p in
        String.length fn >= np && String.equal (String.sub fn 0 np) p)
      prefixes

(* Constructor-shaped idents, for the per-domain construction-confinement
   check on types. *)
let constructor_like name =
  List.exists (String.equal name) [ "empty"; "copy"; "load" ] || init_like (Some name)

(* ------------------------------------------------------------------ *)
(* The rules                                                          *)
(* ------------------------------------------------------------------ *)

let wrapper_unit = "Domain_safe"

let r1_findings ~zones_path items decls =
  let undeclared =
    List.filter_map
      (fun (it : Inventory.item) ->
        if not it.escaping then None
        else
          match Zones.find decls ~sort:it.sort ~key:(Inventory.key it) with
          | Some _ -> None
          | None ->
            Some
              (Finding.at ~file:it.path ~line:it.line ~col:it.col Finding.R1
                 (Printf.sprintf
                    "escaping mutable %s `%s` (%s) has no domain zone; declare it in %s"
                    (Inventory.sort_name it.sort) (Inventory.key it)
                    (Inventory.kind_name it.kind)
                    (match zones_path with Some p -> p | None -> "dr-race.zones"))))
      items
  in
  let stale =
    List.filter_map
      (fun (d : Zones.decl) ->
        let matches =
          List.exists
            (fun (it : Inventory.item) ->
              String.equal (Inventory.key it) d.Zones.d_key
              && (match (it.sort, d.Zones.d_sort) with
                 | Inventory.Value, Inventory.Value | Inventory.Type, Inventory.Type -> true
                 | _ -> false))
            items
        in
        if matches then None
        else
          Some
            (Finding.at ~file:d.Zones.d_file ~line:d.Zones.d_line ~col:0 Finding.R1
               (Printf.sprintf "stale zone declaration: census has no %s named %s"
                  (Inventory.sort_name d.Zones.d_sort)
                  d.Zones.d_key)))
      decls
  in
  let dups =
    let seen = String_table.create 16 in
    List.filter_map
      (fun (d : Zones.decl) ->
        let k = Inventory.sort_name d.Zones.d_sort ^ " " ^ d.Zones.d_key in
        match String_table.find_opt seen k with
        | Some (file0, line0) ->
          Some
            (Finding.at ~file:d.Zones.d_file ~line:d.Zones.d_line ~col:0 Finding.R1
               (Printf.sprintf "duplicate zone declaration for %s (first at %s:%d)" d.Zones.d_key
                  file0 line0))
        | None ->
          String_table.add seen k (d.Zones.d_file, d.Zones.d_line);
          None)
      decls
  in
  undeclared @ stale @ dups

let r2_findings items decls accesses urefs =
  let item_by_key sort key =
    List.find_opt
      (fun (it : Inventory.item) ->
        String.equal (Inventory.key it) key
        && (match (it.sort, sort) with
           | Inventory.Value, Inventory.Value | Inventory.Type, Inventory.Type -> true
           | _ -> false))
      items
  in
  let value_findings =
    List.filter_map
      (fun (a : Refgraph.access) ->
        match item_by_key Inventory.Value a.Refgraph.a_key with
        | None -> None
        | Some cell -> (
          match Zones.find decls ~sort:Inventory.Value ~key:a.Refgraph.a_key with
          | None -> None  (* undeclared: R1's business *)
          | Some { Zones.d_zone = Zones.Engine_shared; _ } ->
            if
              Inventory.guarded cell.Inventory.kind
              || String.equal a.Refgraph.a_unit cell.Inventory.unit_name
              || String.equal a.Refgraph.a_unit wrapper_unit
            then None
            else
              Some
                (Finding.at ~file:a.Refgraph.a_path ~line:a.Refgraph.a_line ~col:a.Refgraph.a_col
                   Finding.R2
                   (Printf.sprintf
                      "engine-shared cell %s accessed directly from %s; go through the \
                       Domain_safe wrapper"
                      a.Refgraph.a_key a.Refgraph.a_unit))
          | Some { Zones.d_zone = Zones.Per_domain (Some owner); _ } ->
            if path_under ~owner a.Refgraph.a_path then None
            else
              Some
                (Finding.at ~file:a.Refgraph.a_path ~line:a.Refgraph.a_line ~col:a.Refgraph.a_col
                   Finding.R2
                   (Printf.sprintf "per-domain cell %s (owner %s) referenced from %s"
                      a.Refgraph.a_key owner a.Refgraph.a_path))
          | Some { Zones.d_zone = Zones.Per_domain None; _ } -> None
          | Some { Zones.d_zone = Zones.Init_only; _ } ->
            if
              (match a.Refgraph.a_kind with Refgraph.Write -> false | Refgraph.Read -> true)
              || (not a.Refgraph.a_in_fun)
              || init_like a.Refgraph.a_fn
            then None
            else
              Some
                (Finding.at ~file:a.Refgraph.a_path ~line:a.Refgraph.a_line ~col:a.Refgraph.a_col
                   Finding.R2
                   (Printf.sprintf "init-only cell %s written after initialization (in %s)"
                      a.Refgraph.a_key
                      (match a.Refgraph.a_fn with Some f -> f | None -> "?")))))
      accesses
  in
  (* Construction confinement for per-domain types with an owner subtree:
     only the owner may build instances. *)
  let type_findings =
    List.filter_map
      (fun (d : Zones.decl) ->
        match (d.Zones.d_sort, d.Zones.d_zone) with
        | Inventory.Type, Zones.Per_domain (Some owner) -> (
          match item_by_key Inventory.Type d.Zones.d_key with
          | None -> None
          | Some it ->
            Some
              (List.filter_map
                 (fun (r : Refgraph.uref) ->
                   if
                     String.equal r.Refgraph.r_unit it.Inventory.unit_name
                     && constructor_like r.Refgraph.r_ident
                     && not (path_under ~owner r.Refgraph.r_path)
                   then
                     Some
                       (Finding.at ~file:r.Refgraph.r_path ~line:r.Refgraph.r_line
                          ~col:r.Refgraph.r_col Finding.R2
                          (Printf.sprintf
                             "per-domain type %s (owner %s) constructed outside its subtree (%s.%s)"
                             d.Zones.d_key owner r.Refgraph.r_unit r.Refgraph.r_ident))
                   else None)
                 urefs))
        | _ -> None)
      decls
  in
  value_findings @ List.concat type_findings

(* ------------------------------------------------------------------ *)
(* Orchestration                                                      *)
(* ------------------------------------------------------------------ *)

let analyze ?zones_path roots =
  let files = Driver.files_under roots in
  let units =
    List.map (fun p -> Symbols.load ~parse:Driver.parse ~read:Driver.read_file p) files
  in
  let table =
    try Symbols.table units with Symbols.Clash msg -> raise (Driver.Error msg)
  in
  let items = List.sort Inventory.compare_item (List.concat_map Inventory.of_unit units) in
  let decls =
    match zones_path with
    | None -> []
    | Some p -> (
      if not (Sys.file_exists p) then raise (Driver.Error (Printf.sprintf "zones file not found: %s" p));
      try Zones.parse_file ~path:p (Driver.read_file p)
      with Zones.Parse_error msg -> raise (Driver.Error msg))
  in
  let accesses, urefs = Refgraph.build table units items in
  let findings =
    List.sort Finding.compare
      (r1_findings ~zones_path items decls @ r2_findings items decls accesses urefs)
  in
  { units_scanned = List.length units; items; decls; findings }

let pp_report ppf a =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) a.findings;
  let n = List.length a.findings in
  Format.fprintf ppf "dr_race: %d file%s scanned, %d finding%s@." a.units_scanned
    (if a.units_scanned = 1 then "" else "s")
    n
    (if n = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* The machine-readable census (schema dr-race/2)                     *)
(* ------------------------------------------------------------------ *)

let schema_id = "dr-race/2"

(* The census holds no source positions, so it changes only when the state
   itself does: items sorted by key (each row starts with it). Findings
   still carry positions. *)
let inventory_json a =
  let esc = Finding.json_escape in
  let section label rows =
    Printf.sprintf "  \"%s\": [%s\n  ]" label
      (String.concat "," (List.map (( ^ ) "\n    ") (List.sort String.compare rows)))
  in
  let item (it : Inventory.item) =
    let key = Inventory.key it in
    let zone =
      match Zones.find a.decls ~sort:it.sort ~key with
      | Some d -> Printf.sprintf "\"%s\"" (esc (Zones.zone_name d.Zones.d_zone))
      | None -> "null"
    in
    Printf.sprintf
      "{ \"key\": \"%s\", \"kind\": \"%s\", \"zone\": %s, \"escaping\": %b, \
       \"guarded\": %b }"
      (esc key) (Inventory.kind_name it.kind) zone it.escaping (Inventory.guarded it.kind)
  in
  let values, types =
    List.partition
      (fun it -> match it.Inventory.sort with Inventory.Value -> true | Inventory.Type -> false)
      a.items
  in
  Printf.sprintf "{\n  \"schema\": \"%s\",\n  \"units\": %d,\n%s\n}\n" schema_id a.units_scanned
    (section "values" (List.map item values) ^ ",\n" ^ section "types" (List.map item types))
