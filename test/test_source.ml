(* Tests for bit arrays, segmentation, the data source and packetization. *)

open Dr_source

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Bitarray                                                           *)
(* ------------------------------------------------------------------ *)

let test_bits_set_get () =
  let a = Bitarray.create 19 in
  Bitarray.set a 0 true;
  Bitarray.set a 7 true;
  Bitarray.set a 8 true;
  Bitarray.set a 18 true;
  checks "pattern" "1000000110000000001" (Bitarray.to_string a);
  Bitarray.set a 7 false;
  checkb "cleared" false (Bitarray.get a 7)

let test_bits_roundtrip () =
  let s = "0110100111010001" in
  checks "of/to string" s (Bitarray.to_string (Bitarray.of_string s))

let test_bits_of_string_rejects () =
  Alcotest.check_raises "bad char" (Invalid_argument "Bitarray.of_string: expected only '0'/'1'")
    (fun () -> ignore (Bitarray.of_string "01x"))

let test_bits_bounds () =
  let a = Bitarray.create 8 in
  Alcotest.check_raises "get oob" (Invalid_argument "Bitarray: index out of bounds") (fun () ->
      ignore (Bitarray.get a 8));
  Alcotest.check_raises "negative" (Invalid_argument "Bitarray: index out of bounds") (fun () ->
      ignore (Bitarray.get a (-1)))

let test_bits_equal_content () =
  let a = Bitarray.of_string "10101" and b = Bitarray.of_string "10101" in
  checkb "equal" true (Bitarray.equal a b);
  Bitarray.set b 4 false;
  checkb "not equal" false (Bitarray.equal a b);
  checkb "length matters" false (Bitarray.equal a (Bitarray.of_string "101010"))

let test_bits_padding_invisible () =
  (* Setting then clearing high bits must not corrupt equality. *)
  let a = Bitarray.create 9 and b = Bitarray.create 9 in
  Bitarray.set a 8 true;
  Bitarray.set a 8 false;
  checkb "padding clean" true (Bitarray.equal a b);
  checki "compare 0" 0 (Bitarray.compare a b)

let test_bits_sub_blit () =
  let a = Bitarray.of_string "0011010110" in
  let s = Bitarray.sub a ~pos:2 ~len:5 in
  checks "sub" "11010" (Bitarray.to_string s);
  let d = Bitarray.create 10 in
  Bitarray.blit ~src:s ~dst:d ~pos:3;
  checks "blit" "0001101000" (Bitarray.to_string d)

let test_bits_append () =
  let a = Bitarray.of_string "101" and b = Bitarray.of_string "0011" in
  checks "append" "1010011" (Bitarray.to_string (Bitarray.append a b))

let test_bits_first_diff () =
  let a = Bitarray.of_string "110100" and b = Bitarray.of_string "110001" in
  checkb "diff at 3" true (Bitarray.first_diff a b = Some 3);
  checkb "self none" true (Bitarray.first_diff a a = None)

let test_bits_first_diff_far () =
  (* Difference beyond the first byte exercises the byte-scan path. *)
  let a = Bitarray.create 100 and b = Bitarray.create 100 in
  Bitarray.set b 77 true;
  checkb "diff at 77" true (Bitarray.first_diff a b = Some 77)

let test_bits_counts () =
  let a = Bitarray.of_string "1101001" in
  checki "ones" 4 (Bitarray.count_ones a);
  let b = Bitarray.of_string "1001001" in
  checkb "one differing bit" true (Bitarray.equal (Bitarray.flip a 1) b)

let test_bits_flip () =
  let a = Bitarray.of_string "000" in
  let b = Bitarray.flip a 1 in
  checks "flipped copy" "010" (Bitarray.to_string b);
  checks "original intact" "000" (Bitarray.to_string a)

let test_bits_random_deterministic () =
  let mk () = Bitarray.to_string (Bitarray.random (Dr_engine.Prng.create 4L) 64) in
  checks "reproducible" (mk ()) (mk ())

(* The input array X of the benchmark's and the campaign's shapes, pinned
   by length, popcount and the CRC-32 of its '0'/'1' rendering, as the
   per-bit draw loop produced them. A change to how X is drawn moves every
   golden, repro and campaign number; this names the cause. *)
let test_random_instance_x_pinned () =
  List.iter
    (fun (shape, k, n, t, seed, ones, crc) ->
      let inst = Dr_core.Problem.random_instance ~seed ~model:Dr_core.Problem.Byzantine ~k ~n ~t () in
      let x = inst.Dr_core.Problem.x in
      let what = Printf.sprintf "%s seed %Ld" shape seed in
      checki (what ^ " length") n (Bitarray.length x);
      checki (what ^ " ones") ones (Bitarray.count_ones x);
      checki (what ^ " crc") crc
        (Dr_core.Wire.Crc32.bytes (Bytes.of_string (Bitarray.to_string x))))
    [
      ("sim-deep", 64, 16384, 8, 1L, 8236, 0x7981b572);
      ("sim-deep", 64, 16384, 8, 2L, 8174, 0x6433973d);
      ("sim-wide", 128, 256, 16, 1L, 136, 0xcb16d047);
      ("sim-wide", 128, 256, 16, 2L, 123, 0xacc4daf9);
      ("check-campaign", 8, 64, 3, 1L, 39, 0xe0d8ecf5);
      ("check-campaign", 8, 64, 3, 2L, 28, 0x9a21ab87);
    ]

(* ------------------------------------------------------------------ *)
(* Segment                                                            *)
(* ------------------------------------------------------------------ *)

let test_segment_partition () =
  (* Segments tile [0, n) exactly, lengths within 1 of each other. *)
  List.iter
    (fun (n, s) ->
      let spec = Segment.make ~n ~s in
      let total = ref 0 in
      let min_len = ref max_int and max_len = ref 0 in
      for j = 0 to s - 1 do
        let pos, len = Segment.bounds spec j in
        checki (Printf.sprintf "contiguous n=%d s=%d j=%d" n s j) !total pos;
        total := !total + len;
        if len < !min_len then min_len := len;
        if len > !max_len then max_len := len
      done;
      checki "covers n" n !total;
      checkb "balanced" true (!max_len - !min_len <= 1);
      checki "max_len consistent" !max_len (Segment.max_len spec))
    [ (10, 3); (16, 4); (17, 4); (100, 7); (5, 5); (1, 1); (1000, 64) ]

let test_segment_of_bit () =
  List.iter
    (fun (n, s) ->
      let spec = Segment.make ~n ~s in
      for i = 0 to n - 1 do
        let j = Segment.of_bit spec i in
        let pos, len = Segment.bounds spec j in
        checkb "bit in its segment" true (i >= pos && i < pos + len)
      done)
    [ (10, 3); (17, 4); (64, 8); (63, 8) ]

let test_segment_halve_alignment () =
  let fine = Segment.make ~n:100 ~s:16 in
  let coarse = Segment.halve fine in
  checki "half count" 8 coarse.Segment.s;
  for j = 0 to coarse.Segment.s - 1 do
    match Segment.children ~coarse ~fine j with
    | [ a; b ] ->
      checki "children consecutive" (a + 1) b;
      let cpos, clen = Segment.bounds coarse j in
      let apos, alen = Segment.bounds fine a in
      let _bpos, blen = Segment.bounds fine b in
      checki "start aligned" cpos apos;
      checki "lengths add" clen (alen + blen)
    | _ -> Alcotest.fail "expected two children"
  done

let test_segment_extract () =
  let x = Bitarray.of_string "0101101100" in
  let spec = Segment.make ~n:10 ~s:2 in
  checks "seg0" "01011" (Bitarray.to_string (Segment.extract spec x 0));
  checks "seg1" "01100" (Bitarray.to_string (Segment.extract spec x 1))

let test_segment_invalid () =
  Alcotest.check_raises "s>n" (Invalid_argument "Segment.make: need 1 <= s <= n") (fun () ->
      ignore (Segment.make ~n:4 ~s:5));
  let spec = Segment.make ~n:9 ~s:3 in
  Alcotest.check_raises "odd halve" (Invalid_argument "Segment.halve: segment count must be even")
    (fun () -> ignore (Segment.halve spec))

(* ------------------------------------------------------------------ *)
(* Data_source                                                        *)
(* ------------------------------------------------------------------ *)

let test_source_counts () =
  let x = Bitarray.of_string "1010" in
  let src = Data_source.create ~k:3 x in
  checkb "bit0" true (Data_source.query src ~peer:0 0);
  checkb "bit1" false (Data_source.query src ~peer:0 1);
  ignore (Data_source.query src ~peer:2 3);
  checki "peer0 count" 2 (Data_source.queries_by src 0);
  checki "peer1 count" 0 (Data_source.queries_by src 1);
  checki "total" 3 (Data_source.total_queries src);
  checki "max" 2 (List.fold_left max 0 (List.map (Data_source.queries_by src) [ 0; 1; 2 ]));
  checki "max among honest={1,2}" 1
    (List.fold_left max 0 (List.map (Data_source.queries_by src) [ 1; 2 ]))

let test_source_repeat_queries_counted () =
  let src = Data_source.create ~k:1 (Bitarray.of_string "1") in
  for _ = 1 to 5 do
    ignore (Data_source.query src ~peer:0 0)
  done;
  checki "repeats count" 5 (Data_source.queries_by src 0)

(* A query the source rejects reads no bit, so it must not be charged. *)
let test_source_rejected_query_not_charged () =
  let src = Data_source.create ~k:2 (Bitarray.of_string "1010") in
  ignore (Data_source.query src ~peer:1 2);
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "index %d rejected" i)
        (Invalid_argument "Data_source.query: bad index") (fun () ->
          ignore (Data_source.query src ~peer:1 i)))
    [ -1; 4; max_int ];
  checki "rejected queries charged nothing" 1 (Data_source.queries_by src 1);
  checki "other peer untouched" 0 (Data_source.queries_by src 0)

(* ------------------------------------------------------------------ *)
(* Wire                                                               *)
(* ------------------------------------------------------------------ *)

let test_wire_split_sizes () =
  let bits = Bitarray.random (Dr_engine.Prng.create 8L) 23 in
  let parts = Dr_core.Wire.split ~b:8 bits in
  checki "part count" 3 (List.length parts);
  List.iteri
    (fun idx (part, payload) ->
      checki "indexed in order" idx part;
      checkb "size bound" true (Bitarray.length payload <= 8))
    parts

(* Feed [parts] in order into one assembly; what each part returns. *)
let feed_all ~len ~b parts =
  let table = Dr_engine.Int_table.create 1 in
  List.map (fun (part, payload) -> Dr_core.Wire.Assembly.feed table 0 ~len ~b ~part payload) parts

let completed results = List.filter_map Fun.id results

let test_wire_roundtrip () =
  List.iter
    (fun (len, b) ->
      let bits = Bitarray.random (Dr_engine.Prng.create 21L) len in
      (* Deliver parts in reverse order; reassembly must not care. *)
      match completed (feed_all ~len ~b (List.rev (Dr_core.Wire.split ~b bits))) with
      | [ got ] -> checkb "identical" true (Bitarray.equal bits got)
      | l -> Alcotest.failf "completed %d times" (List.length l))
    [ (1, 1); (10, 3); (64, 64); (65, 64); (100, 7) ]

let test_wire_empty () =
  match feed_all ~len:0 ~b:4 (Dr_core.Wire.split ~b:4 (Bitarray.create 0)) with
  | [ Some got ] -> checki "empty result" 0 (Bitarray.length got)
  | _ -> Alcotest.fail "the one empty part must complete the assembly"

let test_wire_duplicate_parts_ignored () =
  let bits = Bitarray.of_string "110011" in
  let parts = Dr_core.Wire.split ~b:3 bits in
  let first = List.hd parts in
  match feed_all ~len:6 ~b:3 ((first :: first :: parts) @ parts) with
  | [ None; None; None; Some got; None; None ] ->
    checkb "still correct" true (Bitarray.equal bits got)
  | _ -> Alcotest.fail "a duplicate part counted, or a part after completion returned"

let test_wire_conflicting_duplicate_raises () =
  (* A duplicate of part 0 whose payload differs from the first copy must be
     rejected, not silently dropped: under a Byzantine sender the first-write
     -wins policy would otherwise hide an equivocation. *)
  let bits = Bitarray.of_string "110011" in
  let table = Dr_engine.Int_table.create 1 in
  let feed (part, payload) = Dr_core.Wire.Assembly.feed table 0 ~len:6 ~b:3 ~part payload in
  let parts = Dr_core.Wire.split ~b:3 bits in
  checkb "part 0 alone" true (Option.is_none (feed (List.hd parts)));
  Alcotest.check_raises "conflicting duplicate"
    (Invalid_argument "Wire.Assembly.add: duplicate part with conflicting payload")
    (fun () -> ignore (feed (0, Bitarray.of_string "000")));
  (* Identical duplicates are still fine and the payload is untouched. *)
  match completed (List.map feed parts) with
  | [ got ] -> checkb "payload intact" true (Bitarray.equal bits got)
  | _ -> Alcotest.fail "expected one completion"

let test_wire_frame_header_roundtrip () =
  let module F = Dr_core.Wire.Frame in
  List.iteri
    (fun j len ->
      let crc = 0x1234 * (j + 1) in
      let hdr = F.encode_header ~len ~crc in
      checki "header width" F.header_len (Bytes.length hdr);
      match F.decode_header hdr with
      | Ok (len', crc') ->
        checki "length roundtrip" len len';
        checki "crc roundtrip" crc crc'
      | Error e -> Alcotest.failf "well-formed header rejected: %s" (F.describe_header_error e))
    [ 0; 1; 255; 256; 65535; F.max_payload ];
  Alcotest.check_raises "oversized length rejected"
    (Invalid_argument "Wire.Frame.encode_header: bad length")
    (fun () -> ignore (F.encode_header ~len:(F.max_payload + 1) ~crc:0))

let test_wire_frame_header_rejects_garbage () =
  let module F = Dr_core.Wire.Frame in
  let checkerr what want h =
    match F.decode_header h with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e -> checkb what true (e = want)
  in
  checkerr "short header" F.Short_header (Bytes.create (F.header_len - 1));
  checkerr "zero garbage" F.Bad_magic (Bytes.create F.header_len);
  let all_ff = Bytes.make F.header_len '\xff' in
  checkerr "0xff garbage" F.Bad_magic all_ff;
  (* Right magic, hostile length: rejected with the decoded value, so the
     caller can refuse to allocate. *)
  let oversized = F.encode_header ~len:16 ~crc:0 in
  Bytes.set_uint8 oversized 4 0xff;
  (match F.decode_header oversized with
  | Error (F.Length_out_of_range n) -> checkb "decoded length reported" true (n > F.max_payload)
  | Ok _ | Error _ -> Alcotest.fail "oversized length accepted")

let test_wire_crc32_known_vectors () =
  (* Standard check value: CRC32("123456789") = 0xCBF43926. *)
  let crc s = Dr_core.Wire.Crc32.bytes (Bytes.of_string s) in
  checki "check vector" 0xCBF43926 (crc "123456789");
  checki "empty" 0 (crc "");
  let b = Bytes.of_string "xx123456789yy" in
  checki "ranged" 0xCBF43926 (Dr_core.Wire.Crc32.bytes ~off:2 ~len:9 b);
  let c1 = crc "framed payload" in
  let c2 = crc "framed payloae" in
  checkb "bit flip changes crc" false (c1 = c2)

(* An incomplete assembly yields nothing: every part but the last one of
   a 10-bit string returns [None]. *)
let test_wire_incomplete_yields_nothing () =
  let parts = Dr_core.Wire.split ~b:4 (Bitarray.random (Dr_engine.Prng.create 4L) 10) in
  match feed_all ~len:10 ~b:4 parts with
  | [ None; None; Some _ ] -> ()
  | _ -> Alcotest.fail "an incomplete assembly returned a string"

let test_wire_size_mismatch_raises () =
  Alcotest.check_raises "bad size" (Invalid_argument "Wire.Assembly.add: payload size mismatch")
    (fun () -> ignore (feed_all ~len:10 ~b:4 [ (0, Bitarray.create 3) ]))

(* ------------------------------------------------------------------ *)
(* Byte kernels                                                       *)
(* ------------------------------------------------------------------ *)

(* [sub], [blit] and [Data_source.read_range] copy whole bytes and 64-bit
   words; each must equal the bit-by-bit reference built with [init]/[get]
   at random lengths (0-700) and offsets. [equal] compares the packed
   bytes, so it also checks that padding stays zero. *)
let test_bits_kernels_match_reference () =
  let prng = Dr_engine.Prng.create 11L in
  let int bound = Dr_engine.Prng.int prng bound in
  for _ = 1 to 400 do
    let n = int 701 in
    let a = Bitarray.random prng n in
    let len = int (n + 1) in
    let pos = int (n - len + 1) in
    let what = Printf.sprintf "n=%d pos=%d len=%d" n pos len in
    let expected = Bitarray.init len (fun r -> Bitarray.get a (pos + r)) in
    checkb (what ^ ": sub") true (Bitarray.equal expected (Bitarray.sub a ~pos ~len));
    let data = Data_source.create ~k:2 a in
    let read = Bitarray.of_packed len (Data_source.read_range data ~peer:1 ~pos ~len) in
    checkb (what ^ ": read_range") true (Bitarray.equal expected read);
    checki (what ^ ": read_range charge") len (Data_source.queries_by data 1);
    let m = len + int 701 in
    let at = int (m - len + 1) in
    let dst = Bitarray.random prng m in
    let expected =
      Bitarray.init m (fun i ->
          if i >= at && i < at + len then Bitarray.get a (pos + i - at) else Bitarray.get dst i)
    in
    Bitarray.blit ~src:(Bitarray.sub a ~pos ~len) ~dst ~pos:at;
    checkb (Printf.sprintf "%s: blit at %d of %d" what at m) true (Bitarray.equal expected dst)
  done

(* The unaligned blit path moves 64-bit words and bytes without allocating:
   a 5,461-bit blit to an odd offset, on the deterministic minor-heap
   counter. *)
let test_bits_unaligned_blit_allocation_free () =
  let x = Bitarray.random (Dr_engine.Prng.create 3L) 16_384 in
  let len = 5_461 in
  let src = Bitarray.sub x ~pos:0 ~len in
  let dst = Bitarray.create 16_384 in
  let pos = 16_384 - len in
  let before = Gc.minor_words () in
  Bitarray.blit ~src ~dst ~pos;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for one blit" 0. words;
  checkb "copied" true (Bitarray.equal src (Bitarray.sub dst ~pos ~len))

(* [random] draws into the array it creates and allocates nothing else:
   no closure, no boxed state word. *)
let test_bits_random_allocates_the_array () =
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let g = Dr_engine.Prng.create 3L in
  List.iter
    (fun len ->
      Alcotest.(check (float 0.)) (Printf.sprintf "minor words, %d bits" len)
        (words (fun () -> Bitarray.create len))
        (words (fun () -> Bitarray.random g len)))
    [ 0; 1; 64; 1000 ]

let suite =
  [
    ("bitarray set/get", `Quick, test_bits_set_get);
    ("bitarray string roundtrip", `Quick, test_bits_roundtrip);
    ("bitarray of_string rejects", `Quick, test_bits_of_string_rejects);
    ("bitarray bounds", `Quick, test_bits_bounds);
    ("bitarray equality", `Quick, test_bits_equal_content);
    ("bitarray padding invisible", `Quick, test_bits_padding_invisible);
    ("bitarray sub/blit", `Quick, test_bits_sub_blit);
    ("bitarray append", `Quick, test_bits_append);
    ("bitarray first_diff", `Quick, test_bits_first_diff);
    ("bitarray first_diff far", `Quick, test_bits_first_diff_far);
    ("bitarray counts", `Quick, test_bits_counts);
    ("bitarray flip", `Quick, test_bits_flip);
    ("bitarray random deterministic", `Quick, test_bits_random_deterministic);
    ("problem: random_instance X pinned", `Quick, test_random_instance_x_pinned);
    ("segment partition", `Quick, test_segment_partition);
    ("segment of_bit", `Quick, test_segment_of_bit);
    ("segment halve alignment", `Quick, test_segment_halve_alignment);
    ("segment extract", `Quick, test_segment_extract);
    ("segment invalid args", `Quick, test_segment_invalid);
    ("source query counting", `Quick, test_source_counts);
    ("source repeats counted", `Quick, test_source_repeat_queries_counted);
    ("data source: rejected query not charged", `Quick, test_source_rejected_query_not_charged);
    ("wire split sizes", `Quick, test_wire_split_sizes);
    ("wire roundtrip", `Quick, test_wire_roundtrip);
    ("wire empty payload", `Quick, test_wire_empty);
    ("wire duplicates ignored", `Quick, test_wire_duplicate_parts_ignored);
    ("wire conflicting duplicate", `Quick, test_wire_conflicting_duplicate_raises);
    ("wire frame header", `Quick, test_wire_frame_header_roundtrip);
    ("wire frame header rejects garbage", `Quick, test_wire_frame_header_rejects_garbage);
    ("wire crc32 known vectors", `Quick, test_wire_crc32_known_vectors);
    ("wire incomplete get", `Quick, test_wire_incomplete_yields_nothing);
    ("wire size mismatch", `Quick, test_wire_size_mismatch_raises);
    ("bitarray byte kernels match per-bit reference", `Quick, test_bits_kernels_match_reference);
    ("bitarray unaligned blit allocates nothing", `Quick, test_bits_unaligned_blit_allocation_free);
    ("bitarray random allocates only the array", `Quick, test_bits_random_allocates_the_array);
  ]
