(* dr_race: planted-violation fixtures for each rule, zone parsing, the
   census determinism gate, and the "live tree is race-clean" gate.

   Fixtures live in race_fixtures/, their zones in
   race_fixtures/fixtures.zones (dr_race parses them; printer.ml is
   compiled instead, as prints in lib/ are compiler alert l3). Variants of
   that zones file and sources that must not sit in the tree are written
   next to the test. The live-tree tests run over ../lib ../bin ../bench
   against the committed ../dr-race.zones and ../RACE_INVENTORY.json. *)

module Driver = Dr_lint.Driver
module Finding = Dr_lint.Finding
module Inventory = Dr_lint.Inventory
module Symbols = Dr_lint.Symbols
module Zones = Dr_lint.Zones
module Race_rules = Dr_lint.Race_rules
module Domain_safe = Dr_engine.Domain_safe

(* The short form the fixture tests key on: [basename:line [RULE]]. *)
let short (f : Finding.t) =
  Printf.sprintf "%s:%d [%s]" (Filename.basename f.file) f.line (Finding.rule_name f.rule)

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
      "intruder.ml:3 [R2]";   (* per-domain cell poked from outside the owner *)
      "intruder.ml:4 [R2]";   (* per-domain type constructed outside the owner *)
      "outsider.ml:3 [R2]";   (* engine-shared write from another unit *)
      "outsider.ml:4 [R2]";   (* engine-shared read from another unit *)
      "undeclared.ml:3 [R1]"; (* escaping mutable value with no zone *)
    ]
    (shorts (analyze_fixtures fixture_zones))

(* A zones-file entry silences the undeclared cell; an entry that names
   nothing in the census is its own R1 finding. *)
let zones_file_findings () =
  let zones =
    zones_with "stale.zones"
      [
        "value Undeclared.table per-domain -- fixture: declared via the zones file";
        "type Ghost.t per-domain -- fixture: stale on purpose, no such type";
      ]
  in
  let r1s = List.filter (fun s -> Filename.check_suffix s "[R1]") (shorts (analyze_fixtures zones)) in
  Alcotest.(check (list string)) "declared cell silenced; stale entry reported"
    [ "stale.zones:8 [R1]" ] r1s

(* A zones file the parser rejects stops the analysis with its path and
   line: an unknown zone, and init-only on a type. *)
let zones_file_errors () =
  let fails name line prefix =
    match analyze_fixtures (zones_with name [ line ]) with
    | exception Driver.Error msg ->
      Alcotest.(check bool) msg true (String.starts_with ~prefix:(name ^ ":7: " ^ prefix) msg)
    | _ -> Alcotest.failf "%s accepted %S" name line
  in
  fails "unknown.zones" "value Undeclared.table shared" "unknown zone \"shared\"";
  fails "typeinit.zones" "type Undeclared.t init-only" "init-only applies to values"

(* A zone written as a source comment declares nothing: R1 still fires
   and the census zone is null. The comment's marker is assembled here so
   that no file in the tree carries it. *)
let leftover_comment_declares_nothing () =
  if not (Sys.file_exists "leftover") then Sys.mkdir "leftover" 0o755;
  let marker = "dr-race" ^ ":" in
  write "leftover/leftover.ml"
    (Printf.sprintf "(* %s zone engine-shared -- a leftover comment *)\nlet cell = ref 0\n" marker);
  let a = Race_rules.analyze [ "leftover" ] in
  Alcotest.(check (list string)) "R1 fires" [ "leftover.ml:2 [R1]" ] (shorts a);
  let row =
    "{ \"key\": \"Leftover.cell\", \"kind\": \"ref\", \"zone\": null, \"escaping\": true, \
     \"guarded\": false }"
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
  (match find "Holder.t" with
  | Some it ->
    Alcotest.(check string) "mutable record kind" "mutable-record"
      (Inventory.kind_name it.Inventory.kind)
  | None -> Alcotest.fail "Holder.t missing from census");
  (match Zones.find a.Race_rules.decls ~sort:Inventory.Value ~key:"Shared_cell.hits" with
  | Some d ->
    Alcotest.(check string) "zone read from the file" "engine-shared"
      (Zones.zone_name d.Zones.d_zone);
    Alcotest.(check string) "reason read from the file" "fixture: the one shared counter"
      d.Zones.d_reason;
    Alcotest.(check (pair string int)) "declared at" (fixture_zones, 3) (d.Zones.d_file, d.Zones.d_line)
  | None -> Alcotest.fail "Shared_cell.hits has no zone")

(* [Dr_engine.Int_table] is [Hashtbl.Make] over [int]: its handles and its
   type count as hashtbl cells, under either spelling. So do those of
   [String_table], lib/lint's [Hashtbl.Make] over [string]. *)
let int_table_is_a_hashtbl () =
  let src =
    "let seen = Int_table.create 8\n\
     let hits = Dr_engine.Int_table.create 8\n\
     type t = { map : int Int_table.t }\n\
     type u = unit Dr_engine.Int_table.t\n\
     let names = String_table.create 8\n\
     type v = int String_table.t\n"
  in
  let u = Symbols.load ~parse:Driver.parse ~read:(fun _ -> src) "tables.ml" in
  let kinds =
    List.map
      (fun it -> (Inventory.key it, Inventory.kind_name it.Inventory.kind))
      (List.sort Inventory.compare_item (Inventory.of_unit u))
  in
  Alcotest.(check (list (pair string string)))
    "census"
    [ ("Tables.seen", "hashtbl"); ("Tables.hits", "hashtbl"); ("Tables.t", "hashtbl");
      ("Tables.u", "hashtbl"); ("Tables.names", "hashtbl"); ("Tables.v", "hashtbl") ]
    kinds

(* ---- zone grammar ---- *)

let zones_parsing () =
  let decls =
    Zones.parse_file ~path:"z"
      "# comment\n\
       value M.x init-only -- precomputed\n\
       type N.t per-domain:lib/check — em-dash reason\n\
       \n\
       type O.t engine-shared\n"
  in
  Alcotest.(check int) "three declarations" 3 (List.length decls);
  (match decls with
  | [ a; b; c ] ->
    Alcotest.(check string) "zone 1" "init-only" (Zones.zone_name a.Zones.d_zone);
    Alcotest.(check string) "reason 1" "precomputed" a.Zones.d_reason;
    Alcotest.(check string) "zone 2" "per-domain:lib/check" (Zones.zone_name b.Zones.d_zone);
    Alcotest.(check string) "reason 2" "em-dash reason" b.Zones.d_reason;
    Alcotest.(check string) "reason optional" "" c.Zones.d_reason
  | _ -> Alcotest.fail "expected three declarations");
  let rejects src =
    match Zones.parse_file ~path:"z" src with
    | exception Zones.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed line %S" src
  in
  rejects "cell M.x init-only\n";
  rejects "value M.x shared\n";
  rejects "type M.t init-only -- instances have no init window\n";
  rejects "value M.x\n"

(* ---- the path/zone predicates the rules are built on ---- *)

let predicates () =
  Alcotest.(check bool) "subtree" true (Race_rules.path_under ~owner:"lib/check" "lib/check/corpus.ml");
  Alcotest.(check bool) "dotdot-normalized" true
    (Race_rules.path_under ~owner:"lib/check" "../lib/check/corpus.ml");
  Alcotest.(check bool) "sibling is outside" false
    (Race_rules.path_under ~owner:"lib/check" "lib/core/exec.ml");
  Alcotest.(check bool) "prefix is not a segment match" false
    (Race_rules.path_under ~owner:"lib/check" "lib/checker/x.ml");
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

(* Every escaping census item must carry a zone in the committed file —
   the invariant R1 enforces, asserted here directly against the data. *)
let all_escaping_zoned () =
  let a = Race_rules.analyze ~zones_path:"../dr-race.zones" roots in
  List.iter
    (fun (it : Inventory.item) ->
      if it.Inventory.escaping then
        match Zones.find a.Race_rules.decls ~sort:it.Inventory.sort ~key:(Inventory.key it) with
        | Some _ -> ()
        | None -> Alcotest.failf "%s escapes but has no zone" (Inventory.key it))
    a.Race_rules.items

(* ---- the Domain_safe wrapper under real contention ---- *)
(* Spawns domains: keep this after every suite that forks (transport). *)

let domain_safe_parallel () =
  let counter = Domain_safe.Counter.make () in
  let cell = Domain_safe.Cell.make 0 in
  let guarded = Domain_safe.Guarded.make 0 in
  let iters = 10_000 in
  let worker () =
    for _ = 1 to iters do
      Domain_safe.Counter.incr counter;
      Domain_safe.Cell.update cell (fun n -> n + 1);
      Domain_safe.Guarded.with_lock guarded (fun _ -> ()) |> ignore
    done
  in
  let doms = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join doms;
  Alcotest.(check int) "atomic counter: no lost increments" (4 * iters)
    (Domain_safe.Counter.get counter);
  Alcotest.(check int) "CAS cell: no lost updates" (4 * iters) (Domain_safe.Cell.get cell);
  Domain_safe.Counter.reset counter;
  Alcotest.(check int) "reset" 0 (Domain_safe.Counter.get counter);
  Domain_safe.Guarded.set guarded 7;
  Alcotest.(check int) "guarded set/get" 7 (Domain_safe.Guarded.with_lock guarded (fun v -> v))

let suite =
  [
    Alcotest.test_case "fixtures: R1/R2/R3 all fire" `Quick fixture_findings;
    Alcotest.test_case "fixtures: zones file declares and goes stale" `Quick zones_file_findings;
    Alcotest.test_case "fixtures: zones file errors name their line" `Quick zones_file_errors;
    Alcotest.test_case "fixtures: a leftover zone comment declares nothing" `Quick
      leftover_comment_declares_nothing;
    Alcotest.test_case "fixtures: census kinds and zone pragmas" `Quick fixture_inventory;
    Alcotest.test_case "census: Int_table counts as a hashtbl" `Quick int_table_is_a_hashtbl;
    Alcotest.test_case "zones grammar" `Quick zones_parsing;
    Alcotest.test_case "path/zone predicates" `Quick predicates;
    Alcotest.test_case "live tree is race-clean" `Quick live_tree_race_clean;
    Alcotest.test_case "census is committed and deterministic" `Quick
      inventory_committed_and_deterministic;
    Alcotest.test_case "every escaping item is zoned" `Quick all_escaping_zoned;
    Alcotest.test_case "Domain_safe under 4-domain contention" `Quick domain_safe_parallel;
  ]
