(* dr_race: planted-violation fixtures for each rule, zone parsing, the
   census determinism gate, and the "live tree is race-clean" gate.

   Fixtures live in race_fixtures/ (never compiled; dr_race parses them).
   The live-tree tests run over ../lib ../bin ../bench against the
   committed ../dr-race.zones and ../RACE_INVENTORY.json. *)

module Driver = Dr_lint.Driver
module Finding = Dr_lint.Finding
module Inventory = Dr_lint.Inventory
module Zones = Dr_lint.Zones
module Race_rules = Dr_lint.Race_rules
module Domain_safe = Dr_engine.Domain_safe

let shorts (r : Driver.report) =
  List.concat_map (fun fr -> List.map Test_lint.short fr.Driver.findings) r.Driver.files

(* ---- the planted violations: every rule must fire ---- *)

let fixture_findings () =
  let a = Race_rules.analyze [ "race_fixtures" ] in
  Alcotest.(check (list string))
    "each planted violation fires, nothing else"
    [
      "initonly.ml:7 [R2]";   (* init-only cell written post-init *)
      "intruder.ml:3 [R2]";   (* per-domain cell poked from outside the owner *)
      "intruder.ml:4 [R2]";   (* per-domain type constructed outside the owner *)
      "outsider.ml:3 [R2]";   (* engine-shared write from another unit *)
      "outsider.ml:4 [R2]";   (* engine-shared read from another unit *)
      "printer.ml:3 [R3]";    (* stdlib singleton outside bin//bench//lib/stats *)
      "undeclared.ml:3 [R1]"; (* escaping mutable value with no zone *)
    ]
    (shorts a.Race_rules.report);
  Alcotest.(check int) "the waived print is suppressed" 1
    a.Race_rules.report.Driver.total_suppressed

(* A zones file silences the undeclared cell and raises its own stale-entry
   diagnostic. *)
let zones_file_findings () =
  let a =
    Race_rules.analyze ~zones_path:"race_fixtures/fixtures.zones" [ "race_fixtures" ]
  in
  let r1s = List.filter (fun s -> Filename.check_suffix s "[R1]") (shorts a.Race_rules.report) in
  Alcotest.(check (list string))
    "declared cell silenced; stale entry reported"
    [ "fixtures.zones:4 [R1]" ] r1s

(* ---- the census ---- *)

let fixture_inventory () =
  let a = Race_rules.analyze [ "race_fixtures" ] in
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
    Alcotest.(check string) "pragma zone parsed" "engine-shared" (Zones.zone_name d.Zones.d_zone);
    Alcotest.(check string) "pragma reason parsed" "fixture: the one shared counter"
      d.Zones.d_reason
  | None -> Alcotest.fail "Shared_cell.hits zone pragma not picked up")

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
  Alcotest.(check bool) "bin allowed" true (Race_rules.singleton_allowed "bin/dr_trace.ml");
  Alcotest.(check bool) "bench allowed" true (Race_rules.singleton_allowed "../bench/main.ml");
  Alcotest.(check bool) "lib/stats allowed" true (Race_rules.singleton_allowed "lib/stats/table.ml");
  Alcotest.(check bool) "lib/engine not allowed" false
    (Race_rules.singleton_allowed "lib/engine/sim.ml");
  Alcotest.(check bool) "module init is an init context" true (Race_rules.init_like None);
  Alcotest.(check bool) "setup_ prefixed" true (Race_rules.init_like (Some "setup_tables"));
  Alcotest.(check bool) "of_ prefixed" true (Race_rules.init_like (Some "of_string"));
  Alcotest.(check bool) "plain mutator is not" false (Race_rules.init_like (Some "tweak"))

(* ---- the live tree ---- *)

let roots = [ "../lib"; "../bin"; "../bench" ]

let live_tree_race_clean () =
  let a = Race_rules.analyze ~zones_path:"../dr-race.zones" roots in
  let rendered =
    Format.asprintf "%a" (Driver.pp_report_as ~tool:"dr_race") a.Race_rules.report
  in
  Alcotest.(check bool) "scans the whole tree" true
    (a.Race_rules.report.Driver.files_scanned > 50);
  if not (Driver.clean a.Race_rules.report) then
    Alcotest.failf "live tree has race findings:@.%s" rendered;
  Alcotest.(check int) "race waivers in deliberate use" 1
    a.Race_rules.report.Driver.total_suppressed

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
    Alcotest.test_case "fixtures: census kinds and zone pragmas" `Quick fixture_inventory;
    Alcotest.test_case "zones grammar" `Quick zones_parsing;
    Alcotest.test_case "path/zone predicates" `Quick predicates;
    Alcotest.test_case "live tree is race-clean" `Quick live_tree_race_clean;
    Alcotest.test_case "census is committed and deterministic" `Quick
      inventory_committed_and_deterministic;
    Alcotest.test_case "every escaping item is zoned" `Quick all_escaping_zoned;
    Alcotest.test_case "Domain_safe under 4-domain contention" `Quick domain_safe_parallel;
  ]
