(* Word-valued Download: the paper's "extension to numbers".

   Section 4 extends the binary Download protocols to numbers: fix a word
   width w, view d numbers as one (d·w)-bit array, run any bit Download
   protocol and decode. This example downloads 64 sensor readings that way
   among 9 peers, 2 of them Byzantine — the codec the oracle's
   Download-based collection step uses for its price cells.

   Run with:  dune exec examples/word_values.exe *)

module Word = Dr_oracle.Word_download
module Fault = Dr_adversary.Fault

let () =
  let readings = Array.init 64 (fun i -> 20_000 + (137 * i mod 997)) in
  let fault = Fault.choose ~k:9 (Fault.Spread 2) in
  let winst = Word.make ~seed:13L ~width:16 ~k:9 ~values:readings fault in
  let wr = Word.run (Dr_core.Committee.core ()) winst in
  Printf.printf "word-valued download: 64 x 16-bit readings among 9 peers (2 Byzantine)\n";
  Printf.printf "  ok=%b, per-peer word queries=%d (naive would pay 64)\n" wr.Word.ok
    wr.Word.words_max;
  assert wr.Word.ok;
  match wr.Word.decoded with
  | Some d -> assert (d = readings)
  | None -> assert false
