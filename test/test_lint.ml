(* The static rules the compiler enforces, as compile checks: the name
   bans (L1, L3, L4, L5, L6), which are alerts declared in the prelude, and
   L2, lib/'s int-only comparisons (prelude/mono_compare.mli), and the
   pinned waivers.

   Fixtures live in lint_fixtures/. The compile checks type-check them with
   the compiler the build uses, under the flags a zone reads from
   ../prelude/*.flags, so each case fails exactly as a library in that zone
   would. A case is one line of a fixture, the others blanked, so the
   compiler reports it at its own line. The live-tree tests run over
   ../lib, ../bin and ../bench — the copies dune places next to the test in
   _build, declared as deps in test/dune. *)

module Driver = Dr_lint.Driver

let fixture name = Filename.concat "lint_fixtures" name

(* ---- compile checks ---- *)

(* The zones as the env stanzas build them: any library under lib/, one in
   lib/core or lib/engine (fiber code), lib/net (which links unix), and
   bin/ or bench/. *)
type zone = Lib | Fiber | Net | Main

let flags name =
  String.split_on_char '\n' (String.trim (Driver.read_file ("../prelude/" ^ name ^ ".flags")))

let zone_flags = function
  | Lib | Net -> flags "lib"
  | Fiber -> flags "lib" @ flags "fiber"
  | Main -> flags "main"

let objs =
  [ "prelude"; "lib/engine"; "lib/source"; "lib/adversary"; "lib/core"; "lib/net"; "lib/stats" ]

let includes zone =
  let dir path = Printf.sprintf "../%s/.dr_%s.objs/byte" path (Filename.basename path) in
  List.concat_map (fun d -> [ "-I"; d ])
    (List.map dir objs @ match zone with Net -> [ "+unix"; "+threads" ] | _ -> [])

let ocamlc = lazy (String.trim (Driver.read_file "ocamlc.path"))

(* Each error the compiler reports, as [line: message], where the message
   is the error line and its indented continuation lines, joined by single
   spaces. *)
let errors output =
  let line_of s =
    match String.index_opt s ',' with
    | Some i when String.starts_with ~prefix:"File " s -> (
      let rest = String.sub s (i + 2) (String.length s - i - 2) in
      match Scanf.sscanf_opt rest "line %d" Fun.id with Some l -> l | None -> 0)
    | _ -> 0
  in
  let _, _, acc =
    List.fold_left
      (fun (line, in_error, acc) s ->
        if String.starts_with ~prefix:"File " s then (line_of s, false, acc)
        else if String.starts_with ~prefix:"Error" s then
          (line, true, Printf.sprintf "%d: %s" line s :: acc)
        else
          match acc with
          | e :: rest when in_error && String.starts_with ~prefix:" " s ->
            (line, true, (e ^ " " ^ String.trim s) :: rest)
          | _ -> (line, false, acc))
      (0, false, [])
      (String.split_on_char '\n' output)
  in
  List.rev acc

(* Type-check [src] as a file of [zone]; [within] is the alias module of
   the library it belongs to. Returns the errors, [] when it compiles. *)
let compile ?within ~zone src =
  let ml = Filename.temp_file "case" ".ml" and out = Filename.temp_file "case" ".out" in
  Out_channel.with_open_bin ml (fun oc -> Out_channel.output_string oc src);
  let args =
    includes zone @ zone_flags zone
    @ (match within with Some m -> [ "-open"; m ] | None -> [])
    @ [ "-i"; ml ]
  in
  let command = Filename.quote_command (Lazy.force ocamlc) ~stdout:out ~stderr:out args in
  let code = Sys.command command in
  let output = Driver.read_file out in
  Sys.remove ml;
  Sys.remove out;
  match errors output with
  | [] when code <> 0 -> Alcotest.failf "compiler exit %d with no error:@.%s" code output
  | errs -> errs

(* Compile [src] as unit [dir/name.ml] with -bin-annot, against the
   compiled interfaces of the libraries under [opens], for dr_race to read
   its typed tree. Fails the test on a compile error. *)
let bin_annot ?(opens = []) ~dir name src =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ml = Filename.concat dir (name ^ ".ml") and out = Filename.temp_file "case" ".out" in
  Out_channel.with_open_bin ml (fun oc -> Out_channel.output_string oc src);
  let args =
    includes Lib @ [ "-I"; "../lib/lint/.dr_lint.objs/byte" ]
    @ List.concat_map (fun m -> [ "-open"; m ]) opens
    @ [ "-bin-annot"; "-c"; "-I"; dir; ml ]
  in
  let code = Sys.command (Filename.quote_command (Lazy.force ocamlc) ~stdout:out ~stderr:out args) in
  let output = Driver.read_file out in
  Sys.remove out;
  if code <> 0 then Alcotest.failf "%s does not compile:@.%s" ml output

(* Fixture case [n]: the fixture with every other line blanked. *)
let case src n =
  String.split_on_char '\n' src
  |> List.mapi (fun i l -> if i + 1 = n then l else "")
  |> String.concat "\n"

(* Each (line, expected error) of a fixture, compiled one case at a time. *)
let check_cases ~zone name expected () =
  let src = Driver.read_file (fixture name) in
  List.iter
    (fun (n, error) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s:%d" name n)
        [ Printf.sprintf "%d: %s" n error ]
        (compile ~zone (case src n)))
    expected

let compiles ~zone name () =
  Alcotest.(check (list string)) (name ^ " compiles") []
    (compile ~zone (Driver.read_file (fixture name)))

(* ---- one fixture per rule ---- *)

let l1 () =
  check_cases ~zone:Lib "bad_l1.ml"
    [
      (2, "Error (alert l1): module Dr_prelude.Random");
      (3, "Error (alert l1_lib): Dr_prelude.Sys.time");
      (4, "Error (alert l1_lib): Dr_prelude.Hashtbl.hash");
    ]
    ();
  (* No ?random in the prelude's Hashtbl.create: a label error, after the
     l2 alert every generic create gets in lib/. *)
  Alcotest.(check (list string)) "bad_l1.ml:5"
    [
      "5: Error (alert l2): Dr_prelude.Hashtbl.create";
      "5: Error: The function 'Hashtbl.create' has type int -> ('a, 'b) Dr_prelude.Hashtbl.t It \
       is applied to too many arguments";
    ]
    (compile ~zone:Lib (case (Driver.read_file (fixture "bad_l1.ml")) 5))

(* L2: comparison in lib/ is int-only, so each shape polymorphic compare
   used to accept is a type error, and the qualified name and List's
   equality searches are alerts. *)
let int_expected ty =
  Printf.sprintf "Error: This expression has type %s but an expression was expected of type int" ty

let float_array_expected =
  "Error: This expression has type float array but an expression was expected of type int \
   array Type float is not compatible with type int"

let l2 () =
  check_cases ~zone:Lib "compare.ml"
    [
      (3, int_expected "float");
      (4, int_expected "int list");
      (5, int_expected "string");
      (6, int_expected "colour");
      (7, float_array_expected);
      (8, int_expected "float");
      (9, "Error (alert l2): Dr_prelude.Stdlib.compare");
      (10, "Error (alert l2): Dr_prelude.List.mem");
      (11, "Error (alert l2): Dr_prelude.List.assoc_opt");
      (12, "Error (alert l2): Dr_prelude.Stdlib.List.mem_assoc");
    ]
    ();
  let src = Driver.read_file (fixture "compare.ml") in
  List.iter
    (fun n ->
      Alcotest.(check (list string)) (Printf.sprintf "compare.ml:%d compiles" n) []
        (compile ~zone:Lib (case src n)))
    [ 14; 15; 16; 17; 18 ]

let l3 =
  check_cases ~zone:Lib "bad_l3.ml"
    [
      (2, "Error (alert l3): Dr_prelude.print_endline");
      (3, "Error (alert l3): Dr_prelude.Printf.printf");
      (4, "Error (alert l3): Dr_prelude.prerr_string");
    ]

let l4 =
  check_cases ~zone:Lib "bad_l4.ml"
    [
      (3, "Error (alert metered): Dr_source.Data_source.query");
      (4, "Error (alert metered): Dr_source.Data_source.query_fn");
      (5, "Error (alert metered): Dr_source.Data_source.read_range");
    ]

let l5 =
  check_cases ~zone:Fiber "bad_l5.ml"
    [ (2, "Error (alert l5): Dr_prelude.exit"); (3, "Error (alert l5): Dr_prelude.input_line") ]

(* L6: the program runs in one domain (the simulator's run store is a plain
   ref, and the socket runner forks), so spawning another is an error in
   lib/, bin/ and bench/, through the prelude and through its Stdlib. *)
let l6 () =
  let expected =
    [ (2, "Error (alert l6): module Dr_prelude.Domain");
      (3, "Error (alert l6): module Dr_prelude.Stdlib.Domain") ]
  in
  check_cases ~zone:Lib "bad_l6.ml" expected ();
  check_cases ~zone:Main "bad_l6.ml" expected ()

(* The shapes a syntactic matcher misses: the alert is on the declaration,
   so every path to it is caught. *)
let aliases =
  check_cases ~zone:Fiber "aliases.ml"
    [
      (3, "Error (alert metered): DS.query");
      (4, "Error (alert metered): Dr_source.Data_source.query_fn");
      (5, "Error (alert l1_lib): H.hash");
      (6, "Error (alert l3): P.printf");
      (7, "Error (alert l1): module Dr_prelude.Stdlib.Random");
      (8, "Error (alert l2): T.create");
    ]

(* The same sources build in the zones where their bans don't apply:
   prints and the wall clock are fine in bin/, exit outside core/engine;
   ambient randomness and direct source reads are banned in bin/ too. *)
let zone_scoping () =
  compiles ~zone:Main "bad_l3.ml" ();
  compiles ~zone:Lib "bad_l5.ml" ();
  let cmp = Driver.read_file (fixture "compare.ml") in
  Alcotest.(check (list string)) "float compare allowed in bin/" []
    (compile ~zone:Main (case cmp 3));
  Alcotest.(check (list string)) "Stdlib.compare allowed in bin/" []
    (compile ~zone:Main (case cmp 9));
  Alcotest.(check (list string)) "List.mem allowed in bin/" []
    (compile ~zone:Main (case cmp 10));
  let src = Driver.read_file (fixture "bad_l1.ml") in
  Alcotest.(check (list string)) "Sys.time allowed in bin/" [] (compile ~zone:Main (case src 3));
  Alcotest.(check (list string)) "Hashtbl.hash allowed in bin/" []
    (compile ~zone:Main (case src 4));
  Alcotest.(check (list string)) "generic Hashtbl.create allowed in bin/" []
    (compile ~zone:Main (case (Driver.read_file (fixture "aliases.ml")) 8));
  Alcotest.(check (list string)) "Random banned in bin/"
    [ "2: Error (alert l1): module Dr_prelude.Random" ]
    (compile ~zone:Main (case src 2));
  Alcotest.(check (list string)) "source reads banned in bin/"
    [ "3: Error (alert metered): Dr_source.Data_source.query" ]
    (compile ~zone:Main (case (Driver.read_file (fixture "bad_l4.ml")) 3))

(* The walk feeding dr_race is globally sorted and deduplicated, so
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

(* The socket runtime links unix (it IS the real-world effect layer); no
   core or engine library does, so Unix fails there. Query confinement and
   the ambient-randomness ban still hold in lib/net, and the source
   server's one read is waived on the identifier. *)
let net_zone_rules () =
  let unix = Driver.read_file (fixture "bad_unix.ml") in
  Alcotest.(check (list string)) "Unix allowed in lib/net" [] (compile ~zone:Net unix);
  Alcotest.(check (list string)) "Unix banned in core and engine"
    [ "1: Error (alert ocaml_deprecated_auto_include): " ]
    (compile ~zone:Fiber unix);
  Alcotest.(check (list string)) "query banned in net runner code"
    [ "1: Error (alert metered): Dr_source.Data_source.query" ]
    (compile ~zone:Net "let q s i = Dr_source.Data_source.query s ~peer:0 i");
  Alcotest.(check (list string)) "a waived query compiles" []
    (compile ~zone:Net
       "let q s i = (Dr_source.Data_source.query [@alert \"-metered\"]) s ~peer:0 i");
  Alcotest.(check (list string)) "ambient randomness still banned in lib/net"
    [ "1: Error (alert l1): module Dr_prelude.Random" ]
    (compile ~zone:Net "let roll () = Random.int 6")

(* ---- the live tree ---- *)

(* The waivers in lib/, bin/ and bench/, as (file, waived identifier,
   attribute payload). The compiler says nothing of a waiver that waives
   nothing, so the set is pinned here: a new one is a reviewed change. *)
let live_waivers =
  [
    ("../lib/core/exec.ml", "Dr_source.Data_source.read_range", "-metered");
    ("../lib/engine/trace.ml", "input_line", "-l5");
    ("../lib/net/runner.ml", "Printf.eprintf", "-l3");
    ("../lib/net/source_server.ml", "Data_source.read_range", "-metered");
    ("../lib/stats/table.ml", "Format.std_formatter", "-l3");
  ]

(* Every alert attribute in the tree sits on a bare identifier. *)
let waivers_pinned () =
  let files = Driver.files_under [ "../lib"; "../bin"; "../bench" ] in
  let parse path =
    let lexbuf = Lexing.from_string (Driver.read_file path) in
    Lexing.set_filename lexbuf path;
    Parse.implementation lexbuf
  in
  let open Parsetree in
  let found = ref [] in
  List.iter
    (fun path ->
      let is_alert (a : attribute) =
        String.equal a.attr_name.txt "alert" || String.equal a.attr_name.txt "ocaml.alert"
      in
      let payload (a : attribute) =
        match a.attr_payload with
        | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
          match e.pexp_desc with
          | Pexp_constant (Pconst_string (s, _, _)) -> s
          | _ -> Alcotest.failf "%s: alert attribute without a string payload" path)
        | _ -> Alcotest.failf "%s: alert attribute without a string payload" path
      in
      let default = Ast_iterator.default_iterator in
      let expr (sub : Ast_iterator.iterator) e =
        match (e.pexp_desc, List.filter is_alert e.pexp_attributes) with
        | Pexp_ident { txt; _ }, [ a ] ->
          found := (path, String.concat "." (Longident.flatten txt), payload a) :: !found
        | _ -> default.expr sub e
      in
      let attribute _ (a : attribute) =
        if is_alert a then
          Alcotest.failf "%s:%d: an alert attribute must wrap only the identifier it waives" path
            a.attr_loc.loc_start.pos_lnum
      in
      let iter = { default with expr; attribute } in
      iter.structure iter (parse path))
    files;
  Alcotest.(check (list (triple string string string))) "the live waivers" live_waivers
    (List.sort compare !found)

(* The offset of [sub] in [src] and its 1-based line. *)
let locate ~file src sub =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length src then Alcotest.failf "%s: no %s" file sub
    else if String.equal (String.sub src i n) sub then i
    else find (i + 1)
  in
  let at = find 0 in
  (at, List.length (String.split_on_char '\n' (String.sub src 0 at)))

(* [src] with the [len] bytes at [at] replaced by [by]. *)
let splice src ~at ~len ~by =
  String.sub src 0 at ^ by ^ String.sub src (at + len) (String.length src - at - len)

(* Deleting a waiver must re-expose the banned use at its line: each live
   file compiles as it is, and fails without its attribute. *)
let waiver_deletion_detected () =
  let zone_of path =
    if String.starts_with ~prefix:"../lib/net/" path then Net
    else if
      String.starts_with ~prefix:"../lib/core/" path
      || String.starts_with ~prefix:"../lib/engine/" path
    then Fiber
    else Lib
  in
  List.iter
    (fun (path, ident, payload) ->
      let src = Driver.read_file path in
      let within = "Dr_" ^ Filename.basename (Filename.dirname path) in
      let zone = zone_of path in
      Alcotest.(check (list string)) (path ^ " compiles") [] (compile ~within ~zone src);
      let attr = Printf.sprintf " [@alert %S]" payload in
      let at, line = locate ~file:path src attr in
      let stripped = splice src ~at ~len:(String.length attr) ~by:"" in
      let alert = String.sub payload 1 (String.length payload - 1) in
      match compile ~within ~zone stripped with
      | [ e ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%s without its waiver: %s" path e)
          true
          (String.starts_with ~prefix:(Printf.sprintf "%d: Error (alert %s): " line alert) e
          && String.ends_with ~suffix:ident e)
      | errs -> Alcotest.failf "%s without its waiver: %s" path (String.concat "; " errs))
    live_waivers

(* Reverting a fix must re-expose the error at the original site: here
   Summary.of_floats, back to testing for the empty list with polymorphic
   [=], and Table.print, back to printing to stdout instead of taking
   [?ppf]. *)
let fix_reversion_detected () =
  let src = Driver.read_file "../lib/stats/summary.ml" in
  let fixed = "List.is_empty values" in
  let at, line = locate ~file:"summary.ml" src fixed in
  Alcotest.(check (list string)) "reverted Summary.of_floats"
    [ Printf.sprintf "%d: %s" line (int_expected "'a list") ]
    (compile ~within:"Dr_stats" ~zone:Lib
       (splice src ~at ~len:(String.length fixed) ~by:"values = []"));
  let lines = String.split_on_char '\n' (Driver.read_file "../lib/stats/table.ml") in
  let rec find i = function
    | l :: _ when String.starts_with ~prefix:"let print ?(ppf" l -> i
    | _ :: rest -> find (i + 1) rest
    | [] -> Alcotest.fail "Table.print not found"
  in
  let at = find 1 lines in
  (* The definition is three lines: replace the first, blank the body. *)
  let reverted =
    List.mapi
      (fun i l ->
        if i + 1 = at then "let print t = print_string (render t)"
        else if i + 1 > at && i + 1 <= at + 2 then ""
        else l)
      lines
  in
  Alcotest.(check (list string)) "reverted Table.print"
    [ Printf.sprintf "%d: Error (alert l3): Dr_prelude.print_string" at ]
    (compile ~within:"Dr_stats" ~zone:Lib (String.concat "\n" reverted))

let suite =
  [
    Alcotest.test_case "fixture: L1 determinism" `Quick l1;
    Alcotest.test_case "fixture: L2 polymorphic compare" `Quick l2;
    Alcotest.test_case "fixture: L3 direct stdout" `Quick l3;
    Alcotest.test_case "fixture: L4 query confinement" `Quick l4;
    Alcotest.test_case "fixture: L5 fiber safety" `Quick l5;
    Alcotest.test_case "fixture: L6 one domain" `Quick l6;
    Alcotest.test_case "fixture: aliases, opens and Stdlib" `Quick aliases;
    Alcotest.test_case "zone scoping" `Quick zone_scoping;
    Alcotest.test_case "files_under is sorted, deduped, fixture-free" `Quick
      files_under_deterministic;
    Alcotest.test_case "lib/net zone rules" `Quick net_zone_rules;
    Alcotest.test_case "waivers are pinned and wrap one identifier" `Quick waivers_pinned;
    Alcotest.test_case "deleting a pragma re-exposes the finding" `Quick waiver_deletion_detected;
    Alcotest.test_case "reverting a fix re-exposes the finding" `Quick fix_reversion_detected;
  ]
