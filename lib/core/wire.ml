module Bitarray = Dr_source.Bitarray

let parts ~b len =
  if b <= 0 then invalid_arg "Wire.parts: b must be positive";
  if len = 0 then 1 else (len + b - 1) / b

let split ~b bits =
  let len = Bitarray.length bits in
  if len = 0 then [ (0, Bitarray.create 0) ]
  else
    List.init (parts ~b len) (fun part ->
        let pos = part * b in
        (part, Bitarray.sub bits ~pos ~len:(min b (len - pos))))

module Assembly = struct
  type t = {
    buffer : Bitarray.t;
    b : int;
    have : bool array;  (** which parts have arrived *)
    mutable missing : int;
  }

  let create ~len ~b =
    if b <= 0 then invalid_arg "Wire.Assembly.create: b must be positive";
    if len < 0 then invalid_arg "Wire.Assembly.create: negative length";
    let count = parts ~b len in
    { buffer = Bitarray.create len; b; have = Array.make count false; missing = count }

  let add t ~part payload =
    if part < 0 || part >= Array.length t.have then invalid_arg "Wire.Assembly.add: bad part";
    let pos = part * t.b in
    let expected = min t.b (Bitarray.length t.buffer - pos) in
    if Bitarray.length payload <> expected then
      invalid_arg "Wire.Assembly.add: payload size mismatch";
    if not t.have.(part) then begin
      t.have.(part) <- true;
      t.missing <- t.missing - 1;
      if expected > 0 then Bitarray.blit ~src:payload ~dst:t.buffer ~pos
    end
    else if expected > 0 && not (Bitarray.equal payload (Bitarray.sub t.buffer ~pos ~len:expected))
    then invalid_arg "Wire.Assembly.add: duplicate part with conflicting payload"

  let feed table key ~len ~b ~part payload =
    let t =
      match Dr_engine.Int_table.find table key with
      | t -> t
      | exception Not_found ->
        let t = create ~len ~b in
        Dr_engine.Int_table.add table key t;
        t
    in
    if t.missing = 0 then None
    else begin
      add t ~part payload;
      if t.missing = 0 then Some (Bitarray.copy t.buffer) else None
    end
end

module Crc32 = struct
  (* Reflected CRC-32 (IEEE 802.3 / zlib), polynomial 0xEDB88320. *)
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let update crc byte = table.((crc lxor byte) land 0xff) lxor (crc lsr 8)

  let bytes ?(off = 0) ?len b =
    let len = match len with Some l -> l | None -> Bytes.length b - off in
    if off < 0 || len < 0 || Int.compare (off + len) (Bytes.length b) > 0 then
      invalid_arg "Wire.Crc32.bytes: bad range";
    let c = ref 0xffffffff in
    for i = off to off + len - 1 do
      c := update !c (Bytes.get_uint8 b i)
    done;
    !c lxor 0xffffffff
end

module Frame = struct
  let header_len = 12
  let max_payload = 1 lsl 26
  let magic = "DRF1"

  type header_error = Short_header | Bad_magic | Length_out_of_range of int

  let describe_header_error = function
    | Short_header -> "short header"
    | Bad_magic -> "bad magic (stream out of sync)"
    | Length_out_of_range n -> Printf.sprintf "length %d outside [0, %d]" n max_payload

  let put_be32 h off v =
    Bytes.set_uint8 h off ((v lsr 24) land 0xff);
    Bytes.set_uint8 h (off + 1) ((v lsr 16) land 0xff);
    Bytes.set_uint8 h (off + 2) ((v lsr 8) land 0xff);
    Bytes.set_uint8 h (off + 3) (v land 0xff)

  let get_be32 h off =
    let b i = Bytes.get_uint8 h (off + i) in
    (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

  let encode_header ~len ~crc =
    if len < 0 || len > max_payload then invalid_arg "Wire.Frame.encode_header: bad length";
    let h = Bytes.create header_len in
    Bytes.blit_string magic 0 h 0 4;
    put_be32 h 4 len;
    put_be32 h 8 (crc land 0xffffffff);
    h

  let decode_header h =
    if Bytes.length h < header_len then Error Short_header
    else if not (String.equal (Bytes.sub_string h 0 4) magic) then Error Bad_magic
    else
      let len = get_be32 h 4 in
      if len > max_payload then Error (Length_out_of_range len) else Ok (len, get_be32 h 8)
end
