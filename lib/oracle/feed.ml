module Prng = Dr_engine.Prng

type t = { values : int array array; faulty : bool array; d : int }

let value_bits = 32

let make ~sources ~faulty ~cells ?(base = fun c -> 1000 + (10 * c)) ?(jitter = 2) ~seed () =
  if sources <= 0 || cells <= 0 then invalid_arg "Feed.make";
  let is_faulty = Array.make sources false in
  List.iter
    (fun s ->
      if s < 0 || s >= sources then invalid_arg "Feed.make: bad faulty source id";
      is_faulty.(s) <- true)
    faulty;
  let prng = Prng.create seed in
  let values =
    Array.init sources (fun s ->
        Array.init cells (fun c ->
            if is_faulty.(s) then
              (* Far outside the honest window, alternating direction
                 (clamped non-negative: values are encoded as unsigned). *)
              max 0 (base c + ((if (s + c) mod 2 = 0 then 1 else -1) * (100_000 + Prng.int prng 50_000)))
            else begin
              let j = Prng.int prng ((2 * jitter) + 1) - jitter in
              base c + j
            end))
  in
  { values; faulty = is_faulty; d = cells }

let cells t = t.d
let value t ~source ~cell = t.values.(source).(cell)

let honest_range t ~cell =
  let lo = ref max_int and hi = ref min_int in
  Array.iteri
    (fun s vals ->
      if not t.faulty.(s) then begin
        if vals.(cell) < !lo then lo := vals.(cell);
        if vals.(cell) > !hi then hi := vals.(cell)
      end)
    t.values;
  if !lo > !hi then invalid_arg "Feed.honest_range: no honest source";
  (!lo, !hi)

let in_honest_range t ~cell v =
  let lo, hi = honest_range t ~cell in
  v >= lo && v <= hi
