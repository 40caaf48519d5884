(* dr_race: the whole-program domain-safety analysis.

   Pipeline: parse every unit (Symbols) -> census mutable state
   (Inventory) -> resolve cross-module accesses (Refgraph) -> load zone
   declarations (Zones) -> apply R1/R2/R3 -> report through the shared
   Finding/Driver machinery, with per-site allow pragmas (the dr-lint
   comment syntax under the dr-race marker) as the escape hatch. *)

type analysis = {
  units_scanned : int;
  items : Inventory.item list;
  singletons : Inventory.singleton list;
  decls : Zones.decl list;
  report : Driver.report;
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

(* R3's allowed surface: the process-owning layers. bin/ and bench/ are
   single-shot CLI mains; lib/stats carries the documented default print
   sink (Table.print ?ppf). *)
let singleton_allowed path =
  let segs = segs_of path in
  let mem s = List.exists (String.equal s) segs in
  mem "bin" || mem "bench" || (mem "lib" && mem "stats")

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

let r1_findings ~zones_path items decls pragma_stale =
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
                    "escaping mutable %s `%s` (%s) has no domain zone; declare it in %s or with \
                     an inline zone pragma"
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
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun (d : Zones.decl) ->
        let k = Inventory.sort_name d.Zones.d_sort ^ " " ^ d.Zones.d_key in
        match Hashtbl.find_opt seen k with
        | Some (file0, line0) ->
          Some
            (Finding.at ~file:d.Zones.d_file ~line:d.Zones.d_line ~col:0 Finding.R1
               (Printf.sprintf "duplicate zone declaration for %s (first at %s:%d)" d.Zones.d_key
                  file0 line0))
        | None ->
          Hashtbl.add seen k (d.Zones.d_file, d.Zones.d_line);
          None)
      decls
  in
  let stale_pragmas =
    List.map
      (fun (path, line, why) -> Finding.at ~file:path ~line ~col:0 Finding.R1 why)
      pragma_stale
  in
  undeclared @ stale @ dups @ stale_pragmas

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

let r3_findings singletons =
  List.filter_map
    (fun (s : Inventory.singleton) ->
      if singleton_allowed s.Inventory.s_path then None
      else
        Some
          (Finding.at ~file:s.Inventory.s_path ~line:s.Inventory.s_line ~col:s.Inventory.s_col
             Finding.R3
             (Printf.sprintf
                "domain-unsafe stdlib singleton %s: two domains would race on its shared state; \
                 confine to bin//bench//lib/stats or take an explicit parameter"
                s.Inventory.s_ident)))
    singletons

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
  let singletons =
    List.sort Inventory.compare_singleton (List.concat_map Inventory.singletons_of_unit units)
  in
  let file_decls =
    match zones_path with
    | None -> []
    | Some p -> (
      if not (Sys.file_exists p) then raise (Driver.Error (Printf.sprintf "zones file not found: %s" p));
      try Zones.parse_file ~path:p (Driver.read_file p)
      with Zones.Parse_error msg -> raise (Driver.Error msg))
  in
  let pragma_decls, pragma_stale =
    List.fold_left
      (fun (ds, stale) u ->
        let d, s = Zones.of_pragmas u items in
        (d :: ds, List.map (fun (line, why) -> (u.Symbols.path, line, why)) s :: stale))
      ([], []) units
  in
  let decls = file_decls @ List.concat (List.rev pragma_decls) in
  let pragma_stale = List.concat (List.rev pragma_stale) in
  let accesses, urefs = Refgraph.build table units items in
  let raw =
    r1_findings ~zones_path items decls pragma_stale
    @ r2_findings items decls accesses urefs
    @ r3_findings singletons
  in
  (* Group findings per file and apply (* dr-race: allow Rx *) pragmas; the
     zones file (not a .ml) gets a pragma-less report. *)
  let by_file = Hashtbl.create 32 in
  List.iter
    (fun (f : Finding.t) ->
      let cur = match Hashtbl.find_opt by_file f.Finding.file with Some l -> l | None -> [] in
      Hashtbl.replace by_file f.Finding.file (f :: cur))
    raw;
  let unit_reports =
    List.map
      (fun (u : Symbols.unit_info) ->
        let findings =
          match Hashtbl.find_opt by_file u.Symbols.path with
          | Some l ->
            Hashtbl.remove by_file u.Symbols.path;
            l
          | None -> []
        in
        let pragmas = Pragma.scan ~marker:Pragma.race_marker u.Symbols.source in
        Driver.apply_pragmas ~path:u.Symbols.path ~pragmas findings)
      units
  in
  let other_reports =
    Hashtbl.fold
      (fun path findings acc -> Driver.apply_pragmas ~path ~pragmas:[] findings :: acc)
      by_file []
  in
  let report = Driver.report_of_file_reports (unit_reports @ other_reports) in
  let report = { report with Driver.files_scanned = List.length units } in
  { units_scanned = List.length units; items; singletons; decls; report }

(* ------------------------------------------------------------------ *)
(* The machine-readable census (schema dr-race/1)                     *)
(* ------------------------------------------------------------------ *)

let schema_id = "dr-race/1"

(* Paths relative to the repo root regardless of where the scan ran from
   ("../lib/x.ml" and "lib/x.ml" serialize identically). *)
let norm_path path = String.concat "/" (segs_of path)

let inventory_json a =
  let b = Buffer.create 4096 in
  let esc = Finding.json_escape in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": \"%s\",\n" schema_id);
  Buffer.add_string b (Printf.sprintf "  \"units\": %d,\n" a.units_scanned);
  let emit_items label sort =
    Buffer.add_string b (Printf.sprintf "  \"%s\": [" label);
    let first = ref true in
    List.iter
      (fun (it : Inventory.item) ->
        let same =
          match (it.sort, sort) with
          | Inventory.Value, Inventory.Value | Inventory.Type, Inventory.Type -> true
          | _ -> false
        in
        if same then begin
          if not !first then Buffer.add_char b ',';
          first := false;
          let zone =
            match Zones.find a.decls ~sort ~key:(Inventory.key it) with
            | Some d -> Printf.sprintf "\"%s\"" (esc (Zones.zone_name d.Zones.d_zone))
            | None -> "null"
          in
          Buffer.add_string b
            (Printf.sprintf
               "\n    { \"key\": \"%s\", \"kind\": \"%s\", \"file\": \"%s\", \"line\": %d, \
                \"col\": %d, \"escaping\": %b, \"guarded\": %b, \"zone\": %s }"
               (esc (Inventory.key it))
               (Inventory.kind_name it.kind)
               (esc (norm_path it.path))
               it.line it.col it.escaping
               (Inventory.guarded it.kind)
               zone)
        end)
      a.items;
    Buffer.add_string b "\n  ],\n"
  in
  emit_items "values" Inventory.Value;
  emit_items "types" Inventory.Type;
  Buffer.add_string b "  \"singletons\": [";
  let first = ref true in
  List.iter
    (fun (s : Inventory.singleton) ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b
        (Printf.sprintf "\n    { \"ident\": \"%s\", \"file\": \"%s\", \"line\": %d, \"col\": %d }"
           (esc s.Inventory.s_ident)
           (esc (norm_path s.Inventory.s_path))
           s.Inventory.s_line s.Inventory.s_col))
    a.singletons;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
