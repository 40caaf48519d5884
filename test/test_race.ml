(* dr_race: planted-violation fixtures for each rule, zone parsing, the
   census determinism gate, and the "live tree is race-clean" gate.

   Fixtures live in race_fixtures/, a library dr_race reads the typed
   trees of, their zones in race_fixtures/fixtures.zones (printer.ml is
   compiled under lib/'s flags instead, as prints in lib/ are compiler
   alert l3). Variants of that zones file, and sources that must not sit
   in the tree, compiled with -bin-annot, are written next to the test. The
   live-tree tests run over ../lib ../bin ../bench against the committed
   ../dr-race.zones and ../RACE_INVENTORY.json. *)

module Driver = Dr_lint.Driver
module Inventory = Dr_lint.Inventory
module Zones = Dr_lint.Zones
module Race_rules = Dr_lint.Race_rules

(* The short form the fixture tests key on: [basename:line [RULE]]. *)
let short (f : Race_rules.finding) =
  Printf.sprintf "%s:%d [%s]" (Filename.basename f.file) f.line (Race_rules.rule_name f.rule)

let shorts (a : Race_rules.analysis) = List.map short a.Race_rules.findings

let fixture_zones = "race_fixtures/fixtures.zones"

let write path text = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* A zones file [name]: the fixtures' declarations, then [extra] lines. *)
let zones_with name extra =
  write name (Driver.read_file fixture_zones ^ String.concat "\n" extra ^ "\n");
  name

let analyze_fixtures zones_path = Race_rules.analyze ~zones_path [ "race_fixtures" ]

(* ---- the planted violations: every rule must fire ---- *)

let fixture_findings () =
  Alcotest.(check (list string))
    "a print in lib/ fails to compile, the waived one compiles"
    [ "3: Error (alert l3): Dr_prelude.Printf.printf" ]
    (Test_lint.compile ~zone:Test_lint.Lib (Driver.read_file "race_fixtures/printer.ml"));
  Alcotest.(check (list string))
    "each planted violation fires, nothing else"
    [
      "initonly.ml:7 [R2]";   (* init-only cell written post-init *)
      "names.ml:5 [R1]";      (* escaping Hashtbl.Make table, not declared *)
      "nested.ml:5 [R2]";     (* init-only cell written inside its nested module *)
      "toucher.ml:3 [R2]";    (* another unit's init-only cell, via its table's replace *)
      "undeclared.ml:3 [R1]"; (* escaping mutable value, not declared *)
    ]
    (shorts (analyze_fixtures fixture_zones))

(* A zones-file entry silences an undeclared cell; an entry that names
   nothing in the census is its own R1 finding. *)
let zones_file_findings () =
  let zones =
    zones_with "stale.zones"
      [
        "value Undeclared.table init-only -- fixture: declared via the zones file";
        "value Names.names init-only -- fixture: declared via the zones file";
        "value Ghost.cell init-only -- fixture: stale on purpose, no such value";
      ]
  in
  let r1s = List.filter (fun s -> Filename.check_suffix s "[R1]") (shorts (analyze_fixtures zones)) in
  Alcotest.(check (list string)) "declared cell silenced; stale entry reported"
    [ "stale.zones:9 [R1]" ] r1s

(* A zones file the parser rejects stops the analysis with its path and
   line: a zone other than init-only, and any type line. *)
let zones_file_errors () =
  let fails name line prefix =
    match analyze_fixtures (zones_with name [ line ]) with
    | exception Driver.Error msg ->
      Alcotest.(check bool) msg true (String.starts_with ~prefix:(name ^ ":7: " ^ prefix) msg)
    | _ -> Alcotest.failf "%s accepted %S" name line
  in
  fails "unknown.zones" "value Undeclared.table shared" "unknown zone \"shared\"";
  fails "perdomain.zones" "value Undeclared.table per-domain" "unknown zone \"per-domain\"";
  fails "typeinit.zones" "type Undeclared.t init-only" "unknown sort \"type\"";
  fails "typezone.zones" "type Undeclared.t per-domain" "unknown sort \"type\""

(* A zone written as a source comment declares nothing: R1 still fires
   and the census zone is null. The comment's marker is assembled here so
   that no file in the tree carries it. *)
let leftover_comment_declares_nothing () =
  let marker = "dr-race" ^ ":" in
  Test_lint.bin_annot ~dir:"leftover" "leftover"
    (Printf.sprintf "(* %s zone init-only -- a leftover comment *)\nlet cell = ref 0\n" marker);
  let a = Race_rules.analyze [ "leftover" ] in
  Alcotest.(check (list string)) "R1 fires" [ "leftover.ml:2 [R1]" ] (shorts a);
  let row =
    "{ \"key\": \"Leftover.cell\", \"kind\": \"ref\", \"zone\": null, \"escaping\": true }"
  in
  let census = Race_rules.inventory_json a in
  Alcotest.(check bool) ("census row " ^ row) true
    (List.exists (fun l -> String.equal (String.trim l) row) (String.split_on_char '\n' census))

(* ---- the census ---- *)

let fixture_inventory () =
  let a = analyze_fixtures fixture_zones in
  let find key =
    List.find_opt (fun it -> String.equal (Inventory.key it) key) a.Race_rules.items
  in
  (match find "Undeclared.table" with
  | Some it ->
    Alcotest.(check string) "hashtbl kind" "hashtbl" (Inventory.kind_name it.Inventory.kind);
    Alcotest.(check bool) "no .mli: escapes" true it.Inventory.escaping
  | None -> Alcotest.fail "Undeclared.table missing from census");
  (match find "Initonly.limit" with
  | Some it -> Alcotest.(check string) "ref kind" "ref" (Inventory.kind_name it.Inventory.kind)
  | None -> Alcotest.fail "Initonly.limit missing from census");
  (match Zones.find a.Race_rules.decls ~key:"Initonly.limit" with
  | Some d ->
    Alcotest.(check string) "reason read from the file" "fixture: set up once, read-only after"
      d.Zones.d_reason;
    Alcotest.(check (pair string int)) "declared at" (fixture_zones, 4) (d.Zones.d_file, d.Zones.d_line)
  | None -> Alcotest.fail "Initonly.limit is not declared init-only");
  Alcotest.(check bool) "an undeclared cell has no declaration" true
    (Option.is_none (Zones.find a.Race_rules.decls ~key:"Undeclared.table"));
  let row =
    "{ \"key\": \"Initonly.limit\", \"kind\": \"ref\", \"zone\": \"init-only\", \
     \"escaping\": true }"
  in
  let census = String.split_on_char '\n' (Race_rules.inventory_json a) in
  Alcotest.(check bool) ("zone column read from the file: " ^ row) true
    (List.exists (fun l -> String.starts_with ~prefix:row (String.trim l)) census)

(* [Dr_engine.Int_table] is [Hashtbl.Make] over [int]: its handles count
   as hashtbl cells, under either spelling. So do those of [String_table],
   lib/lint's [Hashtbl.Make] over [string]. The census lists neither by
   name: it finds the functor application in their units. *)
let int_table_is_a_hashtbl () =
  let src =
    "let seen : unit Int_table.t = Int_table.create 8\n\
     let hits : unit Dr_engine.Int_table.t = Dr_engine.Int_table.create 8\n\
     let names : int String_table.t = String_table.create 8\n"
  in
  Test_lint.bin_annot ~opens:[ "Dr_engine"; "Dr_lint" ] ~dir:"tables" "tables" src;
  let a = Race_rules.analyze [ "tables"; "../lib/engine"; "../lib/lint" ] in
  let kinds =
    List.filter (fun (it : Inventory.item) -> String.equal it.unit_name "Tables") a.Race_rules.items
    |> List.sort (fun (a : Inventory.item) b -> compare a.line b.line)
    |> List.map (fun (it : Inventory.item) -> (Inventory.key it, Inventory.kind_name it.kind))
  in
  Alcotest.(check (list (pair string string)))
    "census"
    [ ("Tables.seen", "hashtbl"); ("Tables.hits", "hashtbl"); ("Tables.names", "hashtbl") ]
    kinds

(* ---- zone grammar ---- *)

let zones_parsing () =
  let decls =
    Zones.parse_file ~path:"z"
      "# comment\n\
       value M.x init-only -- precomputed\n\
       value N.y init-only — em-dash reason\n\
       \n\
       value O.z init-only\n"
  in
  Alcotest.(check int) "three declarations" 3 (List.length decls);
  (match decls with
  | [ a; b; c ] ->
    Alcotest.(check string) "key 1" "M.x" a.Zones.d_key;
    Alcotest.(check string) "reason 1" "precomputed" a.Zones.d_reason;
    Alcotest.(check string) "key 2" "N.y" b.Zones.d_key;
    Alcotest.(check string) "reason 2" "em-dash reason" b.Zones.d_reason;
    Alcotest.(check string) "reason optional" "" c.Zones.d_reason;
    Alcotest.(check int) "line counted past the blank" 5 c.Zones.d_line
  | _ -> Alcotest.fail "expected three declarations");
  let rejects src =
    match Zones.parse_file ~path:"z" src with
    | exception Zones.Parse_error msg ->
      Alcotest.(check bool) ("names its line: " ^ msg) true (String.starts_with ~prefix:"z:2: " msg)
    | _ -> Alcotest.failf "accepted malformed line %S" src
  in
  rejects "# ok\ncell M.x init-only\n";
  rejects "# ok\nvalue M.x shared\n";
  rejects "# ok\nvalue M.x per-domain:lib/stats\n";
  rejects "# ok\nvalue M.x engine-shared\n";
  rejects "# ok\ntype M.t per-domain\n";
  rejects "# ok\ntype M.t init-only -- instances have no init window\n";
  rejects "# ok\nvalue M.x\n"

(* ---- the init-context predicate R2 is built on ---- *)

let predicates () =
  Alcotest.(check bool) "module init is an init context" true (Race_rules.init_like None);
  Alcotest.(check bool) "setup_ prefixed" true (Race_rules.init_like (Some "setup_tables"));
  Alcotest.(check bool) "of_ prefixed" true (Race_rules.init_like (Some "of_string"));
  Alcotest.(check bool) "plain mutator is not" false (Race_rules.init_like (Some "tweak"))

(* ---- the live tree ---- *)

let roots = [ "../lib"; "../bin"; "../bench" ]

let live_tree_race_clean () =
  let a = Race_rules.analyze ~zones_path:"../dr-race.zones" roots in
  Alcotest.(check bool) "scans the whole tree" true (a.Race_rules.units_scanned > 50);
  if not (List.is_empty a.Race_rules.findings) then
    Alcotest.failf "live tree has race findings:@.%a" Race_rules.pp_report a

(* The committed census must be regenerable byte-for-byte: stale
   RACE_INVENTORY.json fails here (and in the @race alias diff). *)
let inventory_committed_and_deterministic () =
  let a = Race_rules.analyze ~zones_path:"../dr-race.zones" roots in
  let b = Race_rules.analyze ~zones_path:"../dr-race.zones" roots in
  Alcotest.(check string) "byte-deterministic across reruns"
    (Race_rules.inventory_json a) (Race_rules.inventory_json b);
  let committed = Driver.read_file "../RACE_INVENTORY.json" in
  Alcotest.(check string) "committed census is current" committed (Race_rules.inventory_json a)

(* Every escaping census item must be declared init-only in the committed
   file — the invariant R1 enforces, asserted here directly against the
   data. *)
let all_escaping_zoned () =
  let a = Race_rules.analyze ~zones_path:"../dr-race.zones" roots in
  List.iter
    (fun (it : Inventory.item) ->
      if it.Inventory.escaping then
        match Zones.find a.Race_rules.decls ~key:(Inventory.key it) with
        | Some _ -> ()
        | None -> Alcotest.failf "%s escapes but is not declared init-only" (Inventory.key it))
    a.Race_rules.items

let suite =
  [
    Alcotest.test_case "fixtures: R1/R2 all fire" `Quick fixture_findings;
    Alcotest.test_case "fixtures: zones file declares and goes stale" `Quick zones_file_findings;
    Alcotest.test_case "fixtures: zones file errors name their line" `Quick zones_file_errors;
    Alcotest.test_case "fixtures: a leftover zone comment declares nothing" `Quick
      leftover_comment_declares_nothing;
    Alcotest.test_case "fixtures: census kinds and zone pragmas" `Quick fixture_inventory;
    Alcotest.test_case "census: Int_table counts as a hashtbl" `Quick int_table_is_a_hashtbl;
    Alcotest.test_case "zones grammar" `Quick zones_parsing;
    Alcotest.test_case "init-context predicate" `Quick predicates;
    Alcotest.test_case "live tree is race-clean" `Quick live_tree_race_clean;
    Alcotest.test_case "census is committed and deterministic" `Quick
      inventory_committed_and_deterministic;
    Alcotest.test_case "every escaping item is zoned" `Quick all_escaping_zoned;
  ]
