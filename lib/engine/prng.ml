(* The four xoshiro256** state words live in one 32-byte [Bytes.t], read
   and written with [Bytes.get/set_int64_le]. A record of mutable [int64]
   fields would box every store without flambda; bytes keep the state
   words unboxed, so a draw allocates only its result. *)
type t = Bytes.t

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64, used to expand seeds into full xoshiro state. *)
let splitmix_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let st = ref seed in
  let g = Bytes.create 32 in
  for w = 0 to 3 do
    Bytes.set_int64_le g (8 * w) (splitmix_next st)
  done;
  g

(* Inlined into the draws below, so [float] and [bool] never box
   the raw output either. *)
let[@inline] next64 g =
  let s0 = Bytes.get_int64_le g 0 and s1 = Bytes.get_int64_le g 8 in
  let s2 = Bytes.get_int64_le g 16 and s3 = Bytes.get_int64_le g 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  Bytes.set_int64_le g 0 s0;
  Bytes.set_int64_le g 8 s1;
  Bytes.set_int64_le g 16 (Int64.logxor s2 t);
  Bytes.set_int64_le g 24 (rotl s3 45);
  result

let split g = create (next64 g)

let int g bound =
  assert (bound > 0);
  Int64.to_int (Int64.unsigned_rem (next64 g) (Int64.of_int bound))

let float g bound =
  let mantissa = Int64.shift_right_logical (next64 g) 11 in
  Int64.to_float mantissa *. (1.0 /. 9007199254740992.0) *. bound

let bool g = Int64.to_int (next64 g) land 1 = 1

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
