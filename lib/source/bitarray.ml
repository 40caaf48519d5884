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
  for i = 0 to len - 1 do
    set t i (Dr_engine.Prng.bool prng)
  done;
  t

let init len f =
  let t = create len in
  for i = 0 to len - 1 do
    if f i then set t i true
  done;
  t

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | _ -> invalid_arg "Bitarray.of_string: expected only '0'/'1'")

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

(* Byte-level copying. [read8 src at w] is the [w <= 8] bits of [src]
   starting at bit [at], packed from bit 0; [write8 dst at w v] stores them
   at bit [at] of [dst], touching no other bit. Every bit of [dst] outside
   the written range, its zero padding included, is left as it was. *)
let read8 src at w =
  let q = at lsr 3 and sh = at land 7 in
  let v = Char.code (Bytes.get src.data q) lsr sh in
  let v = if sh + w > 8 then v lor (Char.code (Bytes.get src.data (q + 1)) lsl (8 - sh)) else v in
  v land ((1 lsl w) - 1)

let write8 dst at w v =
  let q = at lsr 3 and sh = at land 7 in
  let mask = ((1 lsl w) - 1) lsl sh and v = v lsl sh in
  let put q mask v =
    let old = Char.code (Bytes.get dst.data q) in
    Bytes.set dst.data q (Char.unsafe_chr ((old land lnot mask) lor (v land mask)))
  in
  put q (mask land 0xff) (v land 0xff);
  if sh + w > 8 then put (q + 1) (mask lsr 8) (v lsr 8)

(* Copy bits [src_pos, src_pos+len) of [src] to [dst_pos..] of [dst]: one
   [Bytes.blit] when both ends are byte-aligned, else one shifted byte at a
   time; only a trailing partial byte is merged under a mask. *)
let blit_bits ~src ~src_pos ~dst ~dst_pos ~len =
  let full = len lsr 3 in
  let aligned = src_pos land 7 = 0 && dst_pos land 7 = 0 in
  if aligned then Bytes.blit src.data (src_pos lsr 3) dst.data (dst_pos lsr 3) full
  else
    for j = 0 to full - 1 do
      write8 dst (dst_pos + (8 * j)) 8 (read8 src (src_pos + (8 * j)) 8)
    done;
  let w = len land 7 in
  if w > 0 then begin
    let off = 8 * full in
    write8 dst (dst_pos + off) w (read8 src (src_pos + off) w)
  end

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos > t.len - len then invalid_arg "Bitarray.sub";
  let r = create len in
  blit_bits ~src:t ~src_pos:pos ~dst:r ~dst_pos:0 ~len;
  r

let blit ~src ~dst ~pos =
  if pos < 0 || pos > dst.len - src.len then invalid_arg "Bitarray.blit";
  blit_bits ~src ~src_pos:0 ~dst ~dst_pos:pos ~len:src.len

let append a b =
  let t = create (a.len + b.len) in
  blit ~src:a ~dst:t ~pos:0;
  blit ~src:b ~dst:t ~pos:a.len;
  t

let first_diff a b =
  if a.len <> b.len then invalid_arg "Bitarray.first_diff: length mismatch";
  let rec byte_scan i =
    if i >= Bytes.length a.data then None
    else if Bytes.get a.data i <> Bytes.get b.data i then begin
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
