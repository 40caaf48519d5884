type t = { len : int; data : Bytes.t }

let bytes_for len = (len + 7) / 8

let create len =
  if len < 0 then invalid_arg "Bitarray.create";
  { len; data = Bytes.make (bytes_for len) '\000' }

let length t = t.len

let check t i = if i < 0 || i >= t.len then invalid_arg "Bitarray: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i b =
  check t i;
  let byte = Char.code (Bytes.get t.data (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.set t.data (i lsr 3) (Char.chr byte)

let copy t = { len = t.len; data = Bytes.copy t.data }
let equal a b = a.len = b.len && Bytes.equal a.data b.data

let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

let random prng len =
  let t = create len in
  Dr_engine.Prng.fill_bits prng t.data len;
  t

let init len f =
  let t = create len in
  for q = 0 to bytes_for len - 1 do
    let byte = ref 0 in
    for j = 0 to min 8 (len - (8 * q)) - 1 do
      if f ((8 * q) + j) then byte := !byte lor (1 lsl j)
    done;
    Bytes.set t.data q (Char.unsafe_chr !byte)
  done;
  t

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | _ -> invalid_arg "Bitarray.of_string: expected only '0'/'1'")

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

(* Bit-level copying on the packed bytes. [read8 src at w] is the [w <= 8]
   bits of [src] starting at bit [at], packed from bit 0; [write8 dst at w v]
   stores them at bit [at] of [dst], touching no other bit. *)
let read8 src at w =
  let q = at lsr 3 and sh = at land 7 in
  let v = Char.code (Bytes.get src q) lsr sh in
  let v = if sh + w > 8 then v lor (Char.code (Bytes.get src (q + 1)) lsl (8 - sh)) else v in
  v land ((1 lsl w) - 1)

let merge dst q mask v =
  let old = Char.code (Bytes.get dst q) in
  Bytes.set dst q (Char.unsafe_chr ((old land lnot mask) lor (v land mask)))

let write8 dst at w v =
  let q = at lsr 3 and sh = at land 7 in
  let mask = ((1 lsl w) - 1) lsl sh and v = v lsl sh in
  merge dst q (mask land 0xff) (v land 0xff);
  if sh + w > 8 then merge dst (q + 1) (mask lsr 8) (v lsr 8)

(* Copy bits [src_pos, src_pos+len) of [src] to bits [dst_pos..] of [dst],
   touching no other bit of [dst] (its zero padding included). A head of
   at most 7 bits byte-aligns the destination. If the source is then
   aligned too, the whole bytes are one [Bytes.blit]. Otherwise each step
   stores a whole 64-bit destination word, built from one unaligned
   little-endian load of the source shifted right by [sh] and the low [sh]
   bits of the byte after it; every byte it reads or writes lies inside
   the range. The rest goes a byte at a time, and a trailing partial byte
   is merged under a narrower mask. *)
let blit_bits ~src ~src_pos ~dst ~dst_pos ~len =
  let head = Int.min len ((8 - (dst_pos land 7)) land 7) in
  if head > 0 then write8 dst dst_pos head (read8 src src_pos head);
  let s = src_pos + head and d = (dst_pos + head) lsr 3 and rest = len - head in
  let sh = s land 7 in
  let r = ref 0 in
  if sh = 0 then begin
    Bytes.blit src (s lsr 3) dst d (rest lsr 3);
    r := rest land lnot 7
  end
  else begin
    while rest - !r >= 64 do
      let q = (s + !r) lsr 3 in
      let lo = Int64.shift_right_logical (Bytes.get_int64_le src q) sh in
      let hi = Int64.shift_left (Int64.of_int (Bytes.get_uint8 src (q + 8))) (64 - sh) in
      Bytes.set_int64_le dst (d + (!r lsr 3)) (Int64.logor lo hi);
      r := !r + 64
    done;
    while rest - !r >= 8 do
      Bytes.set_uint8 dst (d + (!r lsr 3)) (read8 src (s + !r) 8);
      r := !r + 8
    done
  end;
  let w = rest - !r in
  if w > 0 then write8 dst ((d lsl 3) + !r) w (read8 src (s + !r) w)

let clear_padding t =
  let w = t.len land 7 in
  if w > 0 then begin
    let q = t.len lsr 3 in
    Bytes.set t.data q (Char.unsafe_chr (Char.code (Bytes.get t.data q) land ((1 lsl w) - 1)))
  end

let lognot t =
  let r = { t with data = Bytes.map (fun c -> Char.unsafe_chr (lnot (Char.code c) land 0xff)) t.data } in
  clear_padding r;
  r

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos > t.len - len then invalid_arg "Bitarray.sub";
  let r = create len in
  blit_bits ~src:t.data ~src_pos:pos ~dst:r.data ~dst_pos:0 ~len;
  r

let sub_bytes t ~pos ~len = (sub t ~pos ~len).data

let of_packed len data =
  if
    len < 0
    || Bytes.length data <> bytes_for len
    || (len land 7 <> 0 && Bytes.get_uint8 data (len lsr 3) lsr (len land 7) <> 0)
  then invalid_arg "Bitarray.of_packed";
  { len; data }

let blit ~src ~dst ~pos =
  if pos < 0 || pos > dst.len - src.len then invalid_arg "Bitarray.blit";
  blit_bits ~src:src.data ~src_pos:0 ~dst:dst.data ~dst_pos:pos ~len:src.len

let append a b =
  let t = create (a.len + b.len) in
  blit ~src:a ~dst:t ~pos:0;
  blit ~src:b ~dst:t ~pos:a.len;
  t

let first_diff a b =
  if a.len <> b.len then invalid_arg "Bitarray.first_diff: length mismatch";
  let rec byte_scan i =
    if i >= Bytes.length a.data then None
    else if Bytes.get_uint8 a.data i <> Bytes.get_uint8 b.data i then begin
      let rec bit_scan j =
        if j >= a.len then None
        else if not (Bool.equal (get a j) (get b j)) then Some j
        else bit_scan (j + 1)
      in
      bit_scan (i * 8)
    end
    else byte_scan (i + 1)
  in
  byte_scan 0

let popcount_byte = Array.init 256 (fun b ->
    let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
    go b 0)

let count_ones t =
  let acc = ref 0 in
  for i = 0 to Bytes.length t.data - 1 do
    acc := !acc + popcount_byte.(Char.code (Bytes.get t.data i))
  done;
  !acc

let flip t i =
  let t' = copy t in
  set t' i (not (get t' i));
  t'
