(* dr_lint: fixture golden tests for each rule, pragma behaviour, and the
   "live tree is lint-clean" gate.

   Fixtures live in lint_fixtures/ (never compiled; dr_lint parses them).
   The live-tree test runs over ../lib ../bin ../bench — the copies dune
   places next to the test in _build, declared as deps in test/dune. *)

module Driver = Dr_lint.Driver
module Rules = Dr_lint.Rules
module Finding = Dr_lint.Finding
module Pragma = Dr_lint.Pragma

let fixture name = Filename.concat "lint_fixtures" name

(* The short form the golden tests key on: [basename:line [RULE]]. *)
let short (f : Finding.t) =
  Printf.sprintf "%s:%d [%s]" (Filename.basename f.file) f.line (Finding.rule_name f.rule)

let shorts (r : Driver.file_report) = List.map short r.findings

(* The per-file pipeline of [Driver.lint_paths], under an explicit rule
   context (by default the one the path itself implies). *)
let lint_source ?ctx ~path src =
  let ctx = match ctx with Some c -> c | None -> Rules.ctx_of_path path in
  Driver.apply_pragmas ~path ~pragmas:(Pragma.scan src)
    (Rules.collect ~ctx ~file:path (Driver.parse ~path src))

let lint_file ?ctx path = lint_source ?ctx ~path (Driver.read_file path)

(* A plain lib/ file, and a lib/core one (L5 applies there too). *)
let lib_ctx = Rules.ctx_of_path "lib/stats/fixture.ml"
let core_ctx = Rules.ctx_of_path "lib/core/fixture.ml"

let check_fixture ?(ctx = lib_ctx) name expected () =
  let r = lint_file ~ctx (fixture name) in
  Alcotest.(check (list string)) name expected (shorts r)

(* ---- one known-bad fixture per rule, golden file:line [RULE] output ---- *)

let l1 =
  check_fixture "bad_l1.ml"
    [ "bad_l1.ml:2 [L1]"; "bad_l1.ml:3 [L1]"; "bad_l1.ml:4 [L1]"; "bad_l1.ml:5 [L1]" ]

let l2 =
  check_fixture "bad_l2.ml" [ "bad_l2.ml:2 [L2]"; "bad_l2.ml:3 [L2]"; "bad_l2.ml:4 [L2]" ]

let l3 =
  check_fixture "bad_l3.ml" [ "bad_l3.ml:2 [L3]"; "bad_l3.ml:3 [L3]"; "bad_l3.ml:4 [L3]" ]

let l4 =
  check_fixture "bad_l4.ml" [ "bad_l4.ml:3 [L4]"; "bad_l4.ml:4 [L4]"; "bad_l4.ml:5 [L4]" ]

let l5 =
  check_fixture ~ctx:core_ctx "bad_l5.ml" [ "bad_l5.ml:2 [L5]"; "bad_l5.ml:3 [L5]" ]

(* The same sources are silent in the zones where their rules don't apply:
   prints are fine in bin/, exit is fine outside core/engine. *)
let zone_scoping () =
  let bin_ctx = Rules.ctx_of_path "bin/whatever.ml" in
  let r = lint_file ~ctx:bin_ctx (fixture "bad_l3.ml") in
  Alcotest.(check (list string)) "prints allowed in bin/" [] (shorts r);
  let r = lint_file ~ctx:lib_ctx (fixture "bad_l5.ml") in
  Alcotest.(check (list string)) "exit allowed outside core/engine" [] (shorts r)

(* ---- pragmas ---- *)

let pragma_suppression () =
  let r = lint_file ~ctx:lib_ctx (fixture "pragma_allowed.ml") in
  Alcotest.(check (list string)) "only the uncovered line reported"
    [ "pragma_allowed.ml:5 [L3]" ] (shorts r);
  Alcotest.(check int) "one finding suppressed" 1 (List.length r.suppressed);
  Alcotest.(check (list int)) "no unused pragmas" []
    (List.map (fun p -> p.Pragma.line) r.unused_pragmas);
  match r.suppressed with
  | [ (f, p) ] ->
    Alcotest.(check string) "suppressed finding is the covered line" "pragma_allowed.ml:4 [L3]"
      (short f);
    Alcotest.(check string) "reason survives parsing" "fixture exercises the escape hatch"
      p.Pragma.reason
  | _ -> Alcotest.fail "expected exactly one suppressed finding"

let pragma_unused () =
  let src = "(* dr-lint: allow L2 -- nothing here violates L2 *)\nlet x = 1\n" in
  let r = lint_source ~ctx:lib_ctx ~path:"lib/fake.ml" src in
  Alcotest.(check int) "no findings" 0 (List.length r.findings);
  Alcotest.(check int) "pragma reported unused" 1 (List.length r.unused_pragmas)

let pragma_needs_comment_opener () =
  (* Prose that merely mentions the syntax is not a pragma. *)
  let src = "(* docs: write dr-lint: allow L3 above the line *)\nlet f s = print_endline s\n" in
  let r = lint_source ~ctx:lib_ctx ~path:"lib/fake.ml" src in
  Alcotest.(check (list string)) "finding not suppressed by prose" [ "fake.ml:2 [L3]" ]
    (shorts r)

(* A pragma on the file's last line has no "line below" to cover: it must
   suppress same-line findings only, and never claim the phantom line a
   trailing newline used to suggest. *)
let pragma_eof_edge () =
  let f line = Finding.at ~file:"f.ml" ~line ~col:0 Finding.L3 "msg" in
  let scan1 src =
    match Pragma.scan src with
    | [ p ] -> p
    | ps -> Alcotest.failf "expected one pragma, got %d" (List.length ps)
  in
  let mid = scan1 "(* dr-lint: allow L3 -- x *)\nlet y = 1\n" in
  Alcotest.(check bool) "mid-file pragma covers the line below" true (Pragma.covers mid (f 2));
  let last = scan1 "let y = 1\n(* dr-lint: allow L3 -- x *)\n" in
  Alcotest.(check bool) "last-line pragma covers its own line" true (Pragma.covers last (f 2));
  Alcotest.(check bool) "last-line pragma does not cover the phantom line below" false
    (Pragma.covers last (f 3));
  let last_nonl = scan1 "let y = 1\n(* dr-lint: allow L3 -- x *)" in
  Alcotest.(check bool) "same without a trailing newline" false (Pragma.covers last_nonl (f 3))

(* ---- context derivation ---- *)

let ctx_of_path () =
  let c = Rules.ctx_of_path "lib/engine/prng.ml" in
  Alcotest.(check bool) "prng may use Random" true c.Rules.allow_random;
  let c = Rules.ctx_of_path "lib/core/exec.ml" in
  Alcotest.(check bool) "exec may query" true c.Rules.allow_query;
  Alcotest.(check bool) "exec is fiber zone" true c.Rules.in_core_engine;
  let c = Rules.ctx_of_path "../lib/stats/table.ml" in
  Alcotest.(check bool) "relative paths still resolve lib/" true c.Rules.in_lib;
  Alcotest.(check bool) "stats is not fiber zone" false c.Rules.in_core_engine;
  let c = Rules.ctx_of_path "bench/main.ml" in
  Alcotest.(check bool) "bench is outside lib/" false c.Rules.in_lib;
  let c = Rules.ctx_of_path "lib/net/runner.ml" in
  Alcotest.(check bool) "net is the socket runtime" true c.Rules.in_net;
  Alcotest.(check bool) "net runner may not query" false c.Rules.allow_query;
  let c = Rules.ctx_of_path "lib/net/source_server.ml" in
  Alcotest.(check bool) "source server is the net Q meter" true c.Rules.allow_query

(* Corner cases, table-driven: separators, relative prefixes, fixture
   paths. Expected tuple is (in_lib, in_core_engine, allow_query). *)
let ctx_of_path_corners () =
  let cases =
    [
      (* Backslashes are not separators: a Windows-style spelling names no
         zone at all rather than silently matching lib/. *)
      ("lib\\core\\exec.ml", false, false, false);
      (* Leading ./ and ../ segments don't block zone detection. *)
      ("../lib/core/exec.ml", true, true, true);
      ("./lib/core/exec.ml", true, true, true);
      ("../../lib/engine/sim.ml", true, true, false);
      (* Doubled separators add only empty segments. *)
      ("lib//core//exec.ml", true, true, true);
      (* Fixture files under a lib-like path still derive a lib ctx: their
         exclusion from real runs is the tree walker's job, not ctx's. *)
      ("lib/lint/lint_fixtures/bad_l1.ml", true, false, false);
      (* A directory merely named lib deep in another tree still counts —
         ctx derivation is segment membership, by design. *)
      ("vendor/lib/x.ml", true, false, false);
    ]
  in
  List.iter
    (fun (path, in_lib, in_core_engine, allow_query) ->
      let c = Rules.ctx_of_path path in
      Alcotest.(check bool) (path ^ " in_lib") in_lib c.Rules.in_lib;
      Alcotest.(check bool) (path ^ " in_core_engine") in_core_engine c.Rules.in_core_engine;
      Alcotest.(check bool) (path ^ " allow_query") allow_query c.Rules.allow_query)
    cases

(* The walk feeding dr_lint/dr_race is globally sorted and deduplicated, so
   reports and the committed census are byte-stable however the roots are
   spelled — and fixture directories never leak into real runs. *)
let files_under_deterministic () =
  let a = Driver.files_under [ "../lib"; "../bin" ] in
  let b = Driver.files_under [ "../bin"; "../lib"; "../lib" ] in
  Alcotest.(check (list string)) "root order and duplicates don't matter" a b;
  Alcotest.(check bool) "output is sorted" true (List.sort String.compare a = a);
  Alcotest.(check bool) "walk found the tree" true (List.length a > 50);
  let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  mkdir "walkroot";
  mkdir "walkroot/lint_fixtures";
  mkdir "walkroot/race_fixtures";
  let touch p = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc "let x = 1\n") in
  touch "walkroot/ok.ml";
  touch "walkroot/lint_fixtures/planted.ml";
  touch "walkroot/race_fixtures/planted.ml";
  Alcotest.(check (list string)) "fixture dirs are skipped" [ "walkroot/ok.ml" ]
    (Driver.files_under [ "walkroot" ])

(* ---- the lib/net zone ---- *)

(* The socket runtime is exempt from the L1 Unix ban (it IS the real-world
   effect layer), but L4 query confinement still applies outside its
   source_server, and L1 still bans ambient randomness. *)
let net_zone_rules () =
  let lint path src = lint_source ~ctx:(Rules.ctx_of_path path) ~path src in
  let r = lint "lib/net/fake.ml" "let now () = Unix.gettimeofday ()" in
  Alcotest.(check int) "Unix allowed in lib/net" 0 (List.length r.Driver.findings);
  let r = lint "lib/engine/fake.ml" "let now () = Unix.gettimeofday ()" in
  Alcotest.(check int) "Unix still banned elsewhere" 1 (List.length r.Driver.findings);
  let r = lint "lib/net/fake.ml" "let q s i = Dr_source.Data_source.query s ~peer:0 i" in
  Alcotest.(check int) "query banned in net runner code" 1 (List.length r.Driver.findings);
  let r = lint "lib/net/source_server.ml" "let q s i = Dr_source.Data_source.query s ~peer:0 i" in
  Alcotest.(check int) "query allowed in the net source server" 0 (List.length r.Driver.findings);
  let r = lint "lib/net/fake.ml" "let roll () = Random.int 6" in
  Alcotest.(check int) "ambient randomness still banned in lib/net" 1
    (List.length r.Driver.findings)

(* ---- the live tree ---- *)

let roots = [ "../lib"; "../bin"; "../bench" ]

let live_tree_clean () =
  let report = Driver.lint_paths roots in
  let rendered = Format.asprintf "%a" Driver.pp_report report in
  Alcotest.(check bool) "scans the whole tree" true (report.Driver.files_scanned > 50);
  if not (Driver.clean report) then Alcotest.failf "live tree has findings:@.%s" rendered;
  Alcotest.(check int) "pragmas in deliberate use" 3 report.Driver.total_suppressed

(* Deleting a pragma must re-expose the violation it waives, pointing at the
   right file:line [RULE] — the acceptance criterion for the escape hatch. *)
let pragma_deletion_detected () =
  List.iter
    (fun (path, expected_rule, anchor) ->
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* Blank the pragma lines, preserving line numbers. *)
      let lines = String.split_on_char '\n' src in
      let stripped =
        String.concat "\n"
          (List.map
             (fun l ->
               match Pragma.scan l with [] -> l | _ -> "")
             lines)
      in
      let anchor_line =
        let rec find i = function
          | [] -> Alcotest.failf "%s: anchor %S not found" path anchor
          | l :: rest ->
            let present =
              let nl = String.length l and na = String.length anchor in
              let rec scan j =
                j + na <= nl && (String.equal (String.sub l j na) anchor || scan (j + 1))
              in
              scan 0
            in
            if present then i else find (i + 1) rest
        in
        find 1 lines
      in
      let r = lint_source ~path stripped in
      let expected =
        Printf.sprintf "%s:%d [%s]" (Filename.basename path) anchor_line
          (Finding.rule_name expected_rule)
      in
      Alcotest.(check (list string))
        (path ^ " without its pragma") [ expected ]
        (List.map short r.findings))
    [
      ("../lib/stats/table.ml", Finding.L3, "Format.std_formatter");
      ("../lib/engine/trace.ml", Finding.L5, "input_line ic");
    ]

(* Reverting an L2/L3 fix must re-expose the finding at the original site. *)
let fix_reversion_detected () =
  let cases =
    [
      ( "lib/stats/summary.ml",
        "let _ = Array.sort compare arr\n",
        "summary.ml:1 [L2]" );
      ( "lib/stats/table.ml",
        "let print t = print_string (render t)\n",
        "table.ml:1 [L3]" );
    ]
  in
  List.iter
    (fun (path, src, expected) ->
      let r = lint_source ~path src in
      Alcotest.(check (list string)) ("reverted " ^ path) [ expected ]
        (List.map short r.findings))
    cases

let suite =
  [
    Alcotest.test_case "fixture: L1 determinism" `Quick l1;
    Alcotest.test_case "fixture: L2 polymorphic compare" `Quick l2;
    Alcotest.test_case "fixture: L3 direct stdout" `Quick l3;
    Alcotest.test_case "fixture: L4 query confinement" `Quick l4;
    Alcotest.test_case "fixture: L5 fiber safety" `Quick l5;
    Alcotest.test_case "zone scoping" `Quick zone_scoping;
    Alcotest.test_case "pragma: suppression + golden" `Quick pragma_suppression;
    Alcotest.test_case "pragma: unused is reported" `Quick pragma_unused;
    Alcotest.test_case "pragma: needs a comment opener" `Quick pragma_needs_comment_opener;
    Alcotest.test_case "pragma: last-line edge" `Quick pragma_eof_edge;
    Alcotest.test_case "ctx_of_path zones" `Quick ctx_of_path;
    Alcotest.test_case "ctx_of_path corner cases" `Quick ctx_of_path_corners;
    Alcotest.test_case "files_under is sorted, deduped, fixture-free" `Quick
      files_under_deterministic;
    Alcotest.test_case "lib/net zone rules" `Quick net_zone_rules;
    Alcotest.test_case "live tree is lint-clean" `Quick live_tree_clean;
    Alcotest.test_case "deleting a pragma re-exposes the finding" `Quick pragma_deletion_detected;
    Alcotest.test_case "reverting a fix re-exposes the finding" `Quick fix_reversion_detected;
  ]
