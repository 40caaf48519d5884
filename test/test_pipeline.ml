(* Tests for the word-valued Download adapter and the simulated on-chain
   publication pipeline. *)

module Word = Dr_oracle.Word_download
module Pipeline = Dr_oracle.Pipeline
module Feed = Dr_oracle.Feed
module Fault = Dr_adversary.Fault
open Dr_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Word download                                                       *)
(* ------------------------------------------------------------------ *)

(* Encode and decode through a fault-free naive Download, which reads every
   bit of the encoded array once. *)
let test_word_encode_decode_roundtrip () =
  let k = 2 in
  let fault = Fault.choose ~k Fault.None_faulty in
  List.iter
    (fun (width, values) ->
      let r = Word.run (Naive.core ()) (Word.make ~width ~k ~values fault) in
      checki "bit length" (width * Array.length values) r.Word.bits.Problem.q_max;
      Alcotest.(check (option (array int))) "roundtrip" (Some values) r.Word.decoded)
    [
      (8, [| 0; 255; 17; 128 |]);
      (16, [| 65535; 1; 0 |]);
      (32, [| 1_000_000; 0; 42 |]);
      (1, [| 1; 0; 1; 1 |]);
      (62, [| max_int / 4 |]);
    ]

let test_word_encode_rejects_overflow () =
  let fault = Fault.choose ~k:2 Fault.None_faulty in
  Alcotest.check_raises "too big" (Invalid_argument "Word_download.encode: value does not fit the width")
    (fun () -> ignore (Word.make ~width:8 ~k:2 ~values:[| 256 |] fault));
  Alcotest.check_raises "negative" (Invalid_argument "Word_download.encode: value does not fit the width")
    (fun () -> ignore (Word.make ~width:8 ~k:2 ~values:[| -1 |] fault))

let test_word_download_via_committee () =
  let k = 9 and t = 4 in
  let fault = Fault.choose ~k (Fault.Spread t) in
  let values = Array.init 40 (fun i -> 1000 + (i * i)) in
  let inst = Word.make ~seed:3L ~width:16 ~k ~values fault in
  let r = Word.run (Committee.core ()) inst in
  checkb "ok" true r.Word.ok;
  (match r.Word.decoded with
  | Some d -> Alcotest.(check (array int)) "decoded values" values d
  | None -> Alcotest.fail "no decode");
  (* Word accounting: 40 words of 16 bits = 640 bits; committee charges
     (2t+1)/k of them per peer. *)
  checkb "word queries sane" true (r.Word.words_max >= 1 && r.Word.words_max <= 40);
  checkb "bit report consistent" true
    (r.Word.words_max = (r.Word.bits.Problem.q_max + 15) / 16)

let test_word_download_crash_model () =
  let k = 6 and t = 2 in
  let fault = Fault.choose ~k (Fault.Spread t) in
  let values = Array.init 30 (fun i -> i * 7) in
  let inst = Word.make ~seed:5L ~width:8 ~model:Problem.Crash ~k ~values fault in
  let opts =
    Exec.with_crash (Dr_adversary.Crash_plan.mid_broadcast fault ~after_sends:1) Exec.default
  in
  let r = Word.run (Crash_general.core ()) ~opts inst in
  checkb "ok under crashes" true r.Word.ok

(* ------------------------------------------------------------------ *)
(* Publication pipeline                                                *)
(* ------------------------------------------------------------------ *)

let mk_feed ?(cells = 16) ?(faulty = [ 4 ]) () =
  Feed.make ~sources:5 ~faulty ~cells ~seed:2L ()

let honest_report_of feed fault =
  (* Every honest node reports the median over all honest sources — any
     in-range report works for the pipeline's purposes. *)
  ignore fault;
  fun _node ->
    Array.init (Feed.cells feed) (fun c ->
        let lo, hi = Feed.honest_range feed ~cell:c in
        (lo + hi) / 2)

let test_pipeline_validate () =
  checkb "k=10,t=3 ok" true (Pipeline.validate ~k:10 ~t:3 = Ok ());
  checkb "k=9,t=3 rejected" true
    (match Pipeline.validate ~k:9 ~t:3 with Error _ -> true | Ok () -> false);
  checkb "t>=k rejected" true
    (match Pipeline.validate ~k:3 ~t:3 with Error _ -> true | Ok () -> false)

let test_pipeline_publishes_in_range () =
  let feed = mk_feed () in
  let fault = Fault.choose ~k:10 (Fault.Spread 3) in
  let r = Pipeline.publish ~feed ~fault ~honest_report:(honest_report_of feed fault) () in
  checkb "published" true (r.Pipeline.published <> None);
  checkb "in honest range (k > 3t)" true r.Pipeline.odd_ok;
  checki "used k - t submissions" 7 r.Pipeline.submissions_used

let test_pipeline_no_faults () =
  let feed = mk_feed () in
  let fault = Fault.choose ~k:4 Fault.None_faulty in
  let r = Pipeline.publish ~feed ~fault ~honest_report:(honest_report_of feed fault) () in
  checkb "odd ok" true r.Pipeline.odd_ok

let test_pipeline_attack_in_the_gap () =
  (* 2t < k <= 3t: a rushing Byzantine coalition fills half of the first
     k - t submissions and drags the median out of range. *)
  let feed = mk_feed () in
  let fault = Fault.choose ~k:8 (Fault.First 3) in
  let r = Pipeline.publish ~feed ~fault ~honest_report:(honest_report_of feed fault) () in
  checkb "still publishes" true (r.Pipeline.published <> None);
  checkb "but out of honest range" false r.Pipeline.odd_ok

let test_pipeline_gap_without_rushing_can_survive () =
  (* Same k <= 3t configuration, benign schedule: honest submissions win
     races often enough — the violation is adversarial, not inherent. *)
  let feed = mk_feed () in
  let fault = Fault.choose ~k:8 (Fault.Last 3) in
  let survived = ref 0 in
  for seed = 1 to 8 do
    let r =
      Pipeline.publish ~seed:(Int64.of_int seed) ~rushing:false ~feed ~fault
        ~honest_report:(honest_report_of feed fault) ()
    in
    if r.Pipeline.odd_ok then incr survived
  done;
  checkb "some benign runs survive" true (!survived > 0)

let test_pipeline_deterministic () =
  let feed = mk_feed () in
  let fault = Fault.choose ~k:10 (Fault.Spread 3) in
  let go () = Pipeline.publish ~feed ~fault ~honest_report:(honest_report_of feed fault) () in
  let a = go () and b = go () in
  checkb "same verdict" true (a.Pipeline.odd_ok = b.Pipeline.odd_ok);
  checkb "same time" true (a.Pipeline.time = b.Pipeline.time)

let test_full_flow_end_to_end () =
  let p =
    { Dr_oracle.Odc.peers = 13; peer_faults = 3; sources = 7; source_faults = 2; cells = 24;
      seed = 4L }
  in
  match Dr_oracle.Odc.full_flow p with
  | Error e -> Alcotest.failf "full flow rejected: %s" e
  | Ok (collection, publication) ->
    checkb "collection ODD" true collection.Dr_oracle.Odc.odd_ok;
    checkb "collection exact" true collection.Dr_oracle.Odc.download_ok;
    checkb "publication ODD" true publication.Pipeline.odd_ok;
    checki "k - t submissions" 10 publication.Pipeline.submissions_used

let test_full_flow_rejects_k_3t () =
  let p =
    { Dr_oracle.Odc.peers = 9; peer_faults = 3; sources = 7; source_faults = 2; cells = 8;
      seed = 4L }
  in
  checkb "k <= 3t rejected" true
    (match Dr_oracle.Odc.full_flow p with Error _ -> true | Ok _ -> false)

let test_epochs_accumulate () =
  let base =
    { Dr_oracle.Odc.peers = 13; peer_faults = 3; sources = 7; source_faults = 2; cells = 16;
      seed = 6L }
  in
  match Dr_oracle.Epochs.run { Dr_oracle.Epochs.base; epochs = 4 } with
  | Error e -> Alcotest.failf "epochs rejected: %s" e
  | Ok s ->
    checki "four epochs" 4 (List.length s.Dr_oracle.Epochs.results);
    checkb "all epochs ok" true s.Dr_oracle.Epochs.all_ok;
    checkb "cumulative saving > 1" true (s.Dr_oracle.Epochs.saving > 1.);
    checkb "totals add up" true
      (s.Dr_oracle.Epochs.total_queries
      = List.fold_left (fun acc r -> acc + r.Dr_oracle.Epochs.cell_queries) 0
          s.Dr_oracle.Epochs.results)

let test_epochs_validation () =
  let base =
    { Dr_oracle.Odc.peers = 9; peer_faults = 3; sources = 7; source_faults = 2; cells = 8;
      seed = 6L }
  in
  checkb "k <= 3t rejected" true
    (match Dr_oracle.Epochs.run { Dr_oracle.Epochs.base; epochs = 2 } with
    | Error _ -> true
    | Ok _ -> false);
  let good = { base with Dr_oracle.Odc.peers = 13 } in
  checkb "zero epochs rejected" true
    (match Dr_oracle.Epochs.run { Dr_oracle.Epochs.base = good; epochs = 0 } with
    | Error _ -> true
    | Ok _ -> false)

let suite =
  [
    ("word: encode/decode roundtrip", `Quick, test_word_encode_decode_roundtrip);
    ("word: rejects overflow", `Quick, test_word_encode_rejects_overflow);
    ("word: download via committee", `Quick, test_word_download_via_committee);
    ("word: download under crashes", `Quick, test_word_download_crash_model);
    ("pipeline: validate k > 3t", `Quick, test_pipeline_validate);
    ("pipeline: publishes in range", `Quick, test_pipeline_publishes_in_range);
    ("pipeline: no faults", `Quick, test_pipeline_no_faults);
    ("pipeline: attack in the 2t<k<=3t gap", `Quick, test_pipeline_attack_in_the_gap);
    ("pipeline: benign schedule can survive the gap", `Quick, test_pipeline_gap_without_rushing_can_survive);
    ("pipeline: deterministic", `Quick, test_pipeline_deterministic);
    ("full flow: end to end", `Quick, test_full_flow_end_to_end);
    ("full flow: rejects k <= 3t", `Quick, test_full_flow_rejects_k_3t);
    ("epochs: accumulate savings", `Quick, test_epochs_accumulate);
    ("epochs: validation", `Quick, test_epochs_validation);
  ]
