(* Tests for the statistics helpers: summaries, tail bounds, tables, and
   the Select dispatcher. *)

open Dr_stats

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf eps = Alcotest.(check (float eps))
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

let test_summary_basics () =
  let s = Summary.of_floats [ 1.; 2.; 3.; 4.; 5. ] in
  checki "count" 5 s.Summary.count;
  checkf 1e-9 "mean" 3. s.Summary.mean;
  checkf 1e-9 "median" 3. s.Summary.median;
  checkf 1e-9 "min" 1. s.Summary.min;
  checkf 1e-9 "max" 5. s.Summary.max;
  checkf 1e-6 "stddev" (sqrt 2.) s.Summary.stddev

let test_summary_single () =
  let s = Summary.of_floats [ 7.5 ] in
  checkf 1e-9 "median = value" 7.5 s.Summary.median;
  checkf 1e-9 "p90 = value" 7.5 s.Summary.p90;
  checkf 1e-9 "sd 0" 0. s.Summary.stddev

let test_summary_of_ints () =
  let s = Summary.of_ints [ 10; 20 ] in
  checkf 1e-9 "mean" 15. s.Summary.mean;
  (* lower-median convention via interpolation at q=0.5 of two points *)
  checkf 1e-9 "median interpolates" 15. s.Summary.median

let test_summary_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_floats: empty") (fun () ->
      ignore (Summary.of_floats []))

let test_percentile_interpolation () =
  let sorted = [| 0.; 10.; 20.; 30. |] in
  checkf 1e-9 "p0" 0. (Summary.percentile sorted 0.);
  checkf 1e-9 "p100" 30. (Summary.percentile sorted 1.);
  checkf 1e-9 "p50" 15. (Summary.percentile sorted 0.5);
  checkf 1e-9 "p25" 7.5 (Summary.percentile sorted 0.25)

(* ------------------------------------------------------------------ *)
(* Chernoff / binomial                                                 *)
(* ------------------------------------------------------------------ *)

let test_binomial_pmf_known () =
  (* Bin(4, 0.5): probabilities 1/16, 4/16, 6/16, 4/16, 1/16. *)
  checkf 1e-9 "pmf 0" (1. /. 16.) (Chernoff.binomial_pmf ~trials:4 ~p:0.5 0);
  checkf 1e-9 "pmf 2" (6. /. 16.) (Chernoff.binomial_pmf ~trials:4 ~p:0.5 2);
  checkf 1e-9 "pmf 4" (1. /. 16.) (Chernoff.binomial_pmf ~trials:4 ~p:0.5 4);
  checkf 1e-9 "out of range" 0. (Chernoff.binomial_pmf ~trials:4 ~p:0.5 5)

let test_binomial_degenerate () =
  checkf 1e-9 "p=0 mass at 0" 1. (Chernoff.binomial_pmf ~trials:10 ~p:0. 0);
  checkf 1e-9 "p=1 mass at n" 1. (Chernoff.binomial_pmf ~trials:10 ~p:1. 10)

let test_binomial_tail () =
  (* P[Bin(4,0.5) < 2] = 5/16. *)
  checkf 1e-9 "tail below 2" (5. /. 16.) (Chernoff.binomial_tail_below ~trials:4 ~p:0.5 ~threshold:2);
  checkf 1e-9 "below 0 is 0" 0. (Chernoff.binomial_tail_below ~trials:4 ~p:0.5 ~threshold:0);
  checkf 1e-9 "below n+1 is 1" 1. (Chernoff.binomial_tail_below ~trials:4 ~p:0.5 ~threshold:5)

let test_coverage_failure_sane () =
  (* More honest pickers -> lower failure probability. *)
  let f h = Chernoff.coverage_failure ~honest:h ~segments:4 ~rho:2 in
  checkb "monotone in honest" true (f 40 < f 20 && f 20 < f 10);
  checkb "clamped" true (Chernoff.coverage_failure ~honest:1 ~segments:10 ~rho:5 <= 1.)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

(* What [Table.print] writes. *)
let render t = Format.asprintf "%a" (fun ppf t -> Table.print ~ppf t) t

let test_table_layout () =
  let t = Table.create [ "a"; "bbbb" ] in
  Table.add_row t [ "xxxxx"; "y" ];
  let rendered = render t in
  let lines = String.split_on_char '\n' rendered in
  (match lines with
  | header :: rule :: row :: _ ->
    checks "header padded" "a      bbbb" header;
    checks "rule" (String.make 11 '-') rule;
    checks "row" "xxxxx  y   " row
  | _ -> Alcotest.fail "unexpected layout");
  ()

let test_table_short_row_padded () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "1" ];
  checkb "renders" true (String.length (render t) > 0)

let test_table_long_row_rejected () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: more cells than headers")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  checks "int" "42" (Table.cell_int 42);
  checks "bool" "yes" (Table.cell_bool true);
  checks "bool no" "no" (Table.cell_bool false)

(* ------------------------------------------------------------------ *)
(* Select (protocol dispatch)                                          *)
(* ------------------------------------------------------------------ *)

let name_of = Dr_core.Registry.name

let test_select_regimes () =
  let open Dr_core in
  let crash ~k ~t = Problem.random_instance ~k ~n:64 ~t () in
  let byz ~k ~t = Problem.random_instance ~model:Problem.Byzantine ~k ~n:64 ~t () in
  checks "no faults" "balanced" (name_of (Select.for_instance (crash ~k:8 ~t:0)));
  checks "one crash" "crash-single" (name_of (Select.for_instance (crash ~k:8 ~t:1)));
  checks "many crashes" "crash-general" (name_of (Select.for_instance (crash ~k:8 ~t:5)));
  checks "byz minority randomized" "byz-2cycle" (name_of (Select.for_instance (byz ~k:9 ~t:4)));
  checks "byz minority deterministic" "byz-committee"
    (name_of (Select.for_instance ~prefer:Select.Deterministic (byz ~k:9 ~t:4)));
  checks "byz majority" "naive" (name_of (Select.for_instance (byz ~k:8 ~t:4)))

(* Select's choice for k = 2..12, one row per k and one letter per t < k:
   b balanced, s crash-single, g crash-general, c byz-committee,
   r byz-2cycle, n naive. Crash rows hold for either preference. *)
let regime_table =
  let open Dr_core in
  let crash =
    [ "bs"; "bsg"; "bsgg"; "bsggg"; "bsgggg"; "bsggggg"; "bsgggggg"; "bsggggggg";
      "bsgggggggg"; "bsggggggggg"; "bsgggggggggg" ]
  in
  [
    (Problem.Crash, Select.Randomized, crash);
    (Problem.Crash, Select.Deterministic, crash);
    ( Problem.Byzantine,
      Select.Randomized,
      [ "bn"; "brn"; "brnn"; "brrnn"; "brrnnn"; "brrrnnn"; "brrrnnnn"; "brrrrnnnn";
        "brrrrnnnnn"; "brrrrrnnnnn"; "brrrrrnnnnnn" ] );
    ( Problem.Byzantine,
      Select.Deterministic,
      [ "bn"; "bcn"; "bcnn"; "bccnn"; "bccnnn"; "bcccnnn"; "bcccnnnn"; "bccccnnnn";
        "bccccnnnnn"; "bcccccnnnnn"; "bcccccnnnnnn" ] );
  ]

let test_select_regime_table () =
  let open Dr_core in
  let letter = function
    | "balanced" -> 'b'
    | "crash-single" -> 's'
    | "crash-general" -> 'g'
    | "byz-committee" -> 'c'
    | "byz-2cycle" -> 'r'
    | "naive" -> 'n'
    | other -> Alcotest.failf "unexpected choice %s" other
  in
  List.iter
    (fun (model, prefer, rows) ->
      List.iteri
        (fun i row ->
          let k = i + 2 in
          let got =
            String.init k (fun t ->
                letter
                  (name_of
                     (Select.for_instance ~prefer (Problem.random_instance ~model ~k ~n:64 ~t ()))))
          in
          checks (Printf.sprintf "k=%d" k) row got)
        rows)
    regime_table

let test_select_by_name () =
  checkb "found" true (Dr_core.Registry.find "crash-general" <> None);
  checkb "missing" true (Dr_core.Registry.find "nope" = None);
  checki "seven protocols" 7 (List.length Dr_core.Registry.all)

let test_selected_protocol_actually_works () =
  let open Dr_core in
  List.iter
    (fun (k, t, model) ->
      let inst = Problem.random_instance ~seed:3L ~model ~k ~n:128 ~t () in
      let e = Select.for_instance inst in
      checkb
        (Printf.sprintf "%s admits its own regime" (Registry.name e))
        true
        (Registry.admits e inst = Ok ());
      checkb (Printf.sprintf "%s solves it" (Registry.name e)) true
        (e.Registry.run inst).Problem.ok)
    [
      (8, 0, Problem.Crash);
      (8, 1, Problem.Crash);
      (8, 5, Problem.Crash);
      (9, 4, Problem.Byzantine);
      (8, 4, Problem.Byzantine);
    ]

(* ------------------------------------------------------------------ *)
(* Printers (smoke)                                                    *)
(* ------------------------------------------------------------------ *)

let test_printers_smoke () =
  let t = Table.create [ "a" ] in
  Table.add_row t [ "1" ];
  Table.add_row t [ "2" ];
  checkb "rows render" true
    (List.length (String.split_on_char '\n' (render t)) >= 5);
  let inst = Dr_core.Problem.random_instance ~k:3 ~n:8 ~t:1 () in
  let r = Dr_core.Exec.run_core (Dr_core.Naive.core ()) inst in
  let rendered = Format.asprintf "%a" Dr_core.Problem.pp_report r in
  checkb "report pp mentions protocol" true
    (String.length rendered > 0
    && String.sub rendered 0 5 = "naive")

(* ------------------------------------------------------------------ *)
(* Quartiles and the Json reader (the "bench_io:" test names predate   *)
(* the move of this code into Summary and Json)                        *)
(* ------------------------------------------------------------------ *)

let test_quartiles () =
  let quartiles samples =
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    (Summary.percentile a 0.25, Summary.percentile a 0.5, Summary.percentile a 0.75)
  in
  let q25, med, q75 = quartiles [ 4.; 1.; 3.; 2. ] in
  checkf 1e-9 "q25" 1.75 q25;
  checkf 1e-9 "median" 2.5 med;
  checkf 1e-9 "q75" 3.25 q75;
  let q25, med, q75 = quartiles [ 42. ] in
  checkf 1e-9 "single q25" 42. q25;
  checkf 1e-9 "single median" 42. med;
  checkf 1e-9 "single q75" 42. q75;
  Alcotest.check_raises "empty" (Invalid_argument "Summary.percentile: empty") (fun () ->
      ignore (Summary.percentile [||] 0.5))

let test_json_roundtrip () =
  let v =
    Json.parse
      " { \"name\": \"a \\\"b\\\" \\\\ c\\n\", \"xs\": [1, -2.5e3, []], \"o\": {} }\n"
  in
  checks "string with escapes" "a \"b\" \\ c\n" (Json.str v "name");
  checkb "array" true
    (Json.member v "xs" = Some (Json.Arr [ Json.Num 1.; Json.Num (-2500.); Json.Arr [] ]));
  checkb "empty object" true (Json.member v "o" = Some (Json.Obj []));
  checkb "missing key" true (Json.member v "nope" = None);
  checkf 1e-9 "number field" 7. (Json.num (Json.parse "{\"n\": 7}") "n");
  let raw = "q\"uote \\ back\nnewline" in
  checks "escape" "q\\\"uote \\\\ back\\nnewline" (Json.escape raw);
  checks "escape round-trips" raw (Json.str (Json.parse ("{\"s\": \"" ^ Json.escape raw ^ "\"}")) "s")

let test_json_rejects_garbage () =
  let rejected label f =
    checkb label true (match f () with _ -> false | exception Failure _ -> true)
  in
  rejected "truncated" (fun () -> Json.parse "{ \"schema\": \"x\", \"suite\": \"x\"");
  rejected "wrong type" (fun () -> Json.str (Json.parse "{ \"schema\": 1 }") "schema");
  rejected "missing field" (fun () -> Json.num (Json.parse "{}") "runs");
  rejected "trailing bytes" (fun () -> Json.parse "{\"a\": 1} trailing junk {");
  rejected "second value" (fun () -> Json.parse "[1] [2]");
  Alcotest.check_raises "trailing bytes position"
    (Failure "Json: trailing bytes after the value at byte 9") (fun () ->
      ignore (Json.parse "{\"a\": 1} trailing junk {"))

let test_lanes_smoke () =
  let trace = Dr_engine.Trace.create () in
  Dr_engine.Trace.record trace
    (Dr_engine.Trace.Sent { time = 0.; src = 0; dst = 1; size_bits = 8; tag = "x" });
  Dr_engine.Trace.record trace (Dr_engine.Trace.Delivered { time = 1.; src = 0; dst = 1; tag = "x" });
  Dr_engine.Trace.record trace (Dr_engine.Trace.Terminated { time = 2.; peer = 1 });
  let out = Format.asprintf "%a" (fun ppf tr -> Dr_engine.Trace_stats.pp_lanes ~k:2 ppf tr) trace in
  let lines = String.split_on_char '\n' out in
  checkb "header + 3 rows" true (List.length lines >= 4);
  checkb "contains send marker" true
    (List.exists (fun l -> String.length l > 0 && String.index_opt l '>' <> None) lines)

let suite =
  [
    ("summary: basics", `Quick, test_summary_basics);
    ("summary: single value", `Quick, test_summary_single);
    ("summary: of_ints", `Quick, test_summary_of_ints);
    ("summary: empty raises", `Quick, test_summary_empty_raises);
    ("summary: percentile interpolation", `Quick, test_percentile_interpolation);
    ("chernoff: binomial pmf", `Quick, test_binomial_pmf_known);
    ("chernoff: degenerate p", `Quick, test_binomial_degenerate);
    ("chernoff: tail", `Quick, test_binomial_tail);
    ("chernoff: coverage monotone", `Quick, test_coverage_failure_sane);
    ("table: layout", `Quick, test_table_layout);
    ("table: short row padded", `Quick, test_table_short_row_padded);
    ("table: long row rejected", `Quick, test_table_long_row_rejected);
    ("table: cell formatters", `Quick, test_table_cells);
    ("select: regimes", `Quick, test_select_regimes);
    ("select: by name", `Quick, test_select_by_name);
    ("bench_io: quantiles", `Quick, test_quartiles);
    ("bench_io: json roundtrip", `Quick, test_json_roundtrip);
    ("bench_io: rejects garbage", `Quick, test_json_rejects_garbage);
    ("select: chosen protocol works", `Quick, test_selected_protocol_actually_works);
    ("printers smoke", `Quick, test_printers_smoke);
    ("lane view smoke", `Quick, test_lanes_smoke);
    ("select: regime table", `Quick, test_select_regime_table);
  ]
