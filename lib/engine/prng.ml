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

(* The first [i] splits only advance the master: a split draws one word. *)
let for_peer seed i =
  let master = create seed in
  for _ = 1 to i do
    ignore (next64 master)
  done;
  split master

(* The draw [x] read unsigned, mod [bound], with one signed division and
   nothing boxed: [x = 2h + bit] with [h = x lsr 1 >= 0], so [x mod bound]
   is [(2 (h mod bound) + bit) mod bound], and [2 (h mod bound) + bit] is
   below [2 bound]: at most one subtraction, done as [q - gap] so that no
   step leaves [0 .. bound]. *)
let int g bound =
  assert (bound > 0);
  let x = next64 g in
  let q = Int64.to_int (Int64.rem (Int64.shift_right_logical x 1) (Int64.of_int bound)) in
  let bit = Int64.to_int x land 1 in
  let gap = bound - q - bit in
  if q >= gap then q - gap else q + q + bit

(* The top 53 bits of a draw, scaled into [0, 1). They fit an [int], and
   [float_of_int] is one instruction where [Int64.to_float] is a C call. *)
let[@inline] unit_float_of x =
  float_of_int (Int64.to_int (Int64.shift_right_logical x 11)) *. (1.0 /. 9007199254740992.0)

let float g bound = unit_float_of (next64 g) *. bound

(* Here, not in a caller's loop: [-opaque] inlines [next64] only within
   this module. As in [fill_bits], the state words are held in locals and
   stored back once, so the loop draws and stores without boxing. *)
let fill_floats g a n =
  if n < 0 || n > Array.length a then invalid_arg "Prng.fill_floats";
  let s0 = ref (Bytes.get_int64_le g 0) and s1 = ref (Bytes.get_int64_le g 8) in
  let s2 = ref (Bytes.get_int64_le g 16) and s3 = ref (Bytes.get_int64_le g 24) in
  for i = 0 to n - 1 do
    let result = Int64.mul (rotl (Int64.mul !s1 5L) 7) 9L in
    Array.unsafe_set a i (unit_float_of result);
    let t = Int64.shift_left !s1 17 in
    let x2 = Int64.logxor !s2 !s0 in
    let x3 = Int64.logxor !s3 !s1 in
    s1 := Int64.logxor !s1 x2;
    s0 := Int64.logxor !s0 x3;
    s2 := Int64.logxor x2 t;
    s3 := rotl x3 45
  done;
  Bytes.set_int64_le g 0 !s0;
  Bytes.set_int64_le g 8 !s1;
  Bytes.set_int64_le g 16 !s2;
  Bytes.set_int64_le g 24 !s3

let bool g = Int64.to_int (next64 g) land 1 = 1

(* [len] [bool] draws packed LSB-first, one byte per eight. The step is
   [next64]'s, on state words held in locals rather than reloaded from [g]
   every draw; [g] is written back once at the end. *)
let fill_bits g buf len =
  if len < 0 || (len + 7) / 8 > Bytes.length buf then invalid_arg "Prng.fill_bits";
  let s0 = ref (Bytes.get_int64_le g 0) and s1 = ref (Bytes.get_int64_le g 8) in
  let s2 = ref (Bytes.get_int64_le g 16) and s3 = ref (Bytes.get_int64_le g 24) in
  for q = 0 to ((len + 7) / 8) - 1 do
    let byte = ref 0 in
    for j = 0 to min 8 (len - (8 * q)) - 1 do
      let result = Int64.mul (rotl (Int64.mul !s1 5L) 7) 9L in
      byte := !byte lor ((Int64.to_int result land 1) lsl j);
      let t = Int64.shift_left !s1 17 in
      let x2 = Int64.logxor !s2 !s0 in
      let x3 = Int64.logxor !s3 !s1 in
      s1 := Int64.logxor !s1 x2;
      s0 := Int64.logxor !s0 x3;
      s2 := Int64.logxor x2 t;
      s3 := rotl x3 45
    done;
    Bytes.set buf q (Char.unsafe_chr !byte)
  done;
  Bytes.set_int64_le g 0 !s0;
  Bytes.set_int64_le g 8 !s1;
  Bytes.set_int64_le g 16 !s2;
  Bytes.set_int64_le g 24 !s3

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
