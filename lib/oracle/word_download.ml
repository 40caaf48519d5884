module Bitarray = Dr_source.Bitarray
open Dr_core

type instance = {
  k : int;
  values : int array;
  width : int;
  fault : Dr_adversary.Fault.t;
  model : Problem.fault_model;
  seed : int64;
}

let check_width width =
  if width < 1 || width > 62 then invalid_arg "Word_download: width must be in 1..62"

let encode ~width values =
  check_width width;
  Array.iter
    (fun v ->
      if v < 0 || (width < 62 && v lsr width <> 0) then
        invalid_arg "Word_download.encode: value does not fit the width")
    values;
  Bitarray.init
    (Array.length values * width)
    (fun i -> (values.(i / width) lsr (i mod width)) land 1 = 1)

let decode ~width bits =
  check_width width;
  let total = Bitarray.length bits in
  if total mod width <> 0 then invalid_arg "Word_download.decode: length mismatch";
  Array.init (total / width) (fun w ->
      let v = ref 0 in
      for bit = width - 1 downto 0 do
        v := (!v lsl 1) lor (if Bitarray.get bits ((w * width) + bit) then 1 else 0)
      done;
      !v)

let make ?(seed = 1L) ?(width = 32) ?(model = Problem.Byzantine) ~k ~values fault =
  check_width width;
  ignore (encode ~width values);
  { k; values; width; fault; model; seed }

type report = {
  ok : bool;
  words_max : int;
  decoded : int array option;
  bits : Problem.report;
}

let run core ?opts inst =
  let x = encode ~width:inst.width inst.values in
  let bit_inst =
    Problem.make ~seed:inst.seed ~model:inst.model ~k:inst.k ~x inst.fault
  in
  let bits = Exec.run_core ?opts core bit_inst in
  let to_words q = (q + inst.width - 1) / inst.width in
  {
    ok = bits.Problem.ok;
    words_max = to_words bits.Problem.q_max;
    decoded = (if bits.Problem.ok then Some (decode ~width:inst.width x) else None);
    bits;
  }
