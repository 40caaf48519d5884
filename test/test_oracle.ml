(* Tests for the blockchain-oracle application (Section 4): feeds,
   aggregation, and the two ODC constructions. *)

module Feed = Dr_oracle.Feed
module Aggregate = Dr_oracle.Aggregate
module Odc = Dr_oracle.Odc
module Word = Dr_oracle.Word_download
module Bitarray = Dr_source.Bitarray

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let default_params =
  {
    Odc.peers = 9;
    peer_faults = 2;
    sources = 7;
    source_faults = 2;
    cells = 12;
    seed = 1L;
  }

(* ------------------------------------------------------------------ *)
(* Feed                                                               *)
(* ------------------------------------------------------------------ *)

let test_feed_honest_within_jitter () =
  let feed = Feed.make ~sources:5 ~faulty:[ 4 ] ~cells:8 ~jitter:2 ~seed:3L () in
  for c = 0 to 7 do
    let lo, hi = Feed.honest_range feed ~cell:c in
    checkb "range tight" true (hi - lo <= 4);
    checkb "near base" true (lo >= 1000 + (10 * c) - 2 && hi <= 1000 + (10 * c) + 2)
  done

let test_feed_byzantine_out_of_range () =
  let feed = Feed.make ~sources:5 ~faulty:[ 0; 3 ] ~cells:4 ~seed:3L () in
  checkb "not flagged" true
    (List.for_all (fun c -> Feed.in_honest_range feed ~cell:c (Feed.value feed ~source:1 ~cell:c)) [ 0; 1; 2; 3 ]);
  for c = 0 to 3 do
    checkb "byz value outside honest range" false
      (Feed.in_honest_range feed ~cell:c (Feed.value feed ~source:0 ~cell:c))
  done

(* Each source's array through the word codec the download-based ODC uses:
   a fault-free naive Download at Feed.value_bits bits per cell. *)
let test_feed_encode_roundtrip () =
  let feed = Feed.make ~sources:3 ~faulty:[ 2 ] ~cells:6 ~seed:9L () in
  let fault = Dr_adversary.Fault.choose ~k:2 Dr_adversary.Fault.None_faulty in
  for s = 0 to 2 do
    let values = Array.init 6 (fun cell -> Feed.value feed ~source:s ~cell) in
    let inst = Word.make ~width:Feed.value_bits ~k:2 ~values fault in
    let decoded =
      match (Word.run (Dr_core.Naive.core ()) inst).Word.decoded with
      | Some d -> d
      | None -> Alcotest.fail "download failed"
    in
    checki "cells preserved" 6 (Array.length decoded);
    Array.iteri
      (fun c v -> checki (Printf.sprintf "source %d cell %d" s c) (Feed.value feed ~source:s ~cell:c) v)
      decoded
  done

let test_feed_deterministic () =
  let mk () =
    let feed = Feed.make ~sources:4 ~faulty:[] ~cells:4 ~seed:11L () in
    List.init 4 (fun c -> Feed.value feed ~source:1 ~cell:c)
  in
  Alcotest.(check (list int)) "reproducible" (mk ()) (mk ())

(* ------------------------------------------------------------------ *)
(* Aggregate                                                          *)
(* ------------------------------------------------------------------ *)

let test_median_basic () =
  checki "odd" 3 (Aggregate.median [| 5; 1; 3 |]);
  checki "even -> lower" 2 (Aggregate.median [| 4; 1; 2; 3 |]);
  checki "single" 7 (Aggregate.median [| 7 |])

let test_median_does_not_mutate () =
  let a = [| 3; 1; 2 |] in
  ignore (Aggregate.median a);
  Alcotest.(check (array int)) "untouched" [| 3; 1; 2 |] a

let test_median_robust_to_minority () =
  (* t outliers among 2t+1 values cannot drag the median outside the honest
     range. *)
  let honest = [ 100; 101; 102 ] in
  List.iter
    (fun outliers ->
      let v = Aggregate.median (Array.of_list (honest @ outliers)) in
      checkb "median within honest range" true (v >= 100 && v <= 102))
    [ [ 0; 0 ]; [ 1_000_000; 2_000_000 ]; [ 0; 2_000_000 ] ]

let test_cellwise_median () =
  let m = Aggregate.cellwise_median [ [| 1; 10 |]; [| 2; 20 |]; [| 3; 0 |] ] in
  Alcotest.(check (array int)) "cellwise" [| 2; 10 |] m

(* ------------------------------------------------------------------ *)
(* ODC                                                                *)
(* ------------------------------------------------------------------ *)

let test_validate () =
  checkb "default ok" true (Odc.validate default_params = Ok ());
  checkb "too many byz nodes" true
    (match Odc.validate { default_params with Odc.peer_faults = 5 } with
    | Error _ -> true
    | Ok () -> false);
  checkb "too many byz sources" true
    (match Odc.validate { default_params with Odc.source_faults = 4 } with
    | Error _ -> true
    | Ok () -> false)

let test_baseline_odd () =
  let r = Odc.baseline default_params in
  checkb "published in honest range" true r.Odc.odd_ok;
  checki "all honest nodes fine" 7 r.Odc.honest_reports_ok;
  (* k_honest * (2ts+1) * d cell queries. *)
  checki "total queries" (7 * 5 * 12) r.Odc.cell_queries_total

let test_download_based_odd () =
  let r = Odc.download_based default_params in
  checkb "download exact" true r.Odc.download_ok;
  checkb "published in honest range" true r.Odc.odd_ok;
  checki "all honest nodes fine" 7 r.Odc.honest_reports_ok

let test_download_beats_baseline () =
  (* Theorem 4.2's point: the Download-based ODC saves ~gamma*k in total
     queries. With k=9 nodes the saving must be at least 2x even after
     committee overhead. *)
  let b = Odc.baseline default_params in
  let d = Odc.download_based default_params in
  checkb
    (Printf.sprintf "download total %d < baseline total %d" d.Odc.cell_queries_total
       b.Odc.cell_queries_total)
    true
    (d.Odc.cell_queries_total * 2 < b.Odc.cell_queries_total)

let test_download_with_2cycle () =
  (* The randomized protocol slot: with few peers it degrades to naive but
     must stay correct. *)
  let r = Odc.download_based ~protocol:`Two_cycle default_params in
  checkb "odd ok" true r.Odc.odd_ok;
  checkb "download ok" true r.Odc.download_ok

let test_download_naive_matches_baseline_cost_shape () =
  (* Download-with-naive costs every node the full arrays: no saving. *)
  let r = Odc.download_based ~protocol:`Naive default_params in
  checkb "odd ok" true r.Odc.odd_ok;
  let b = Odc.baseline default_params in
  checkb "naive download >= baseline" true
    (r.Odc.cell_queries_total >= b.Odc.cell_queries_total)

let test_published_agrees_with_honest_median () =
  let b = Odc.baseline default_params in
  let d = Odc.download_based default_params in
  Alcotest.(check (array int)) "same published array" b.Odc.published d.Odc.published

let test_odc_no_faults () =
  let p = { default_params with Odc.peer_faults = 0; source_faults = 0; sources = 1 } in
  let b = Odc.baseline p in
  let d = Odc.download_based p in
  checkb "baseline odd" true b.Odc.odd_ok;
  checkb "download odd" true d.Odc.odd_ok

let test_odc_max_source_faults () =
  let p = { default_params with Odc.sources = 9; source_faults = 4 } in
  let b = Odc.baseline p in
  checkb "odd holds at ts = (m-1)/2" true b.Odc.odd_ok

let test_dynamic_data_breaks_download_odc () =
  (* The paper's closing caveat: the Download-based construction assumes a
     static source; "getting rid of this assumption ... is left as an open
     problem". Here the source updates a value mid-protocol: the committee
     members who query late see a different bit, the vote splits, and the
     download either disagrees with the original array or cannot decide. *)
  let open Dr_core in
  let k = 9 and n = 180 and t = 2 in
  let inst = Problem.random_instance ~seed:17L ~model:Problem.Byzantine ~k ~n ~t () in
  let queries_so_far = ref 0 in
  let dynamic ~peer:_ i =
    incr queries_so_far;
    let original = Dr_source.Bitarray.get inst.Problem.x i in
    (* After a while, the source updates the first quarter of the array. *)
    if !queries_so_far > 60 && i < n / 4 then not original else original
  in
  let opts = Exec.make_opts ~query_override:dynamic ~max_events:200_000 () in
  let r = Exec.run_core ~opts (Committee.core ~attack:Committee.Honest_but_silent ()) inst in
  checkb "dynamic data defeats the static-source protocol" false r.Dr_core.Problem.ok

let suite =
  [
    ("feed: honest jitter window", `Quick, test_feed_honest_within_jitter);
    ("feed: byzantine out of range", `Quick, test_feed_byzantine_out_of_range);
    ("feed: encode/decode roundtrip", `Quick, test_feed_encode_roundtrip);
    ("feed: deterministic", `Quick, test_feed_deterministic);
    ("median: basics", `Quick, test_median_basic);
    ("median: pure", `Quick, test_median_does_not_mutate);
    ("median: robust to minority", `Quick, test_median_robust_to_minority);
    ("median: cellwise", `Quick, test_cellwise_median);
    ("odc: validate", `Quick, test_validate);
    ("odc: baseline satisfies ODD", `Quick, test_baseline_odd);
    ("odc: download-based satisfies ODD", `Quick, test_download_based_odd);
    ("odc: download beats baseline (Thm 4.2)", `Quick, test_download_beats_baseline);
    ("odc: 2-cycle variant", `Quick, test_download_with_2cycle);
    ("odc: naive variant costs like baseline", `Quick, test_download_naive_matches_baseline_cost_shape);
    ("odc: both methods publish the same", `Quick, test_published_agrees_with_honest_median);
    ("odc: no faults", `Quick, test_odc_no_faults);
    ("odc: max source faults", `Quick, test_odc_max_source_faults);
    ("odc: dynamic data breaks it (open problem)", `Quick, test_dynamic_data_breaks_download_odc);
  ]
