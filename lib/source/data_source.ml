type t = {
  bits : Bitarray.t;
  counts : int array;
  share : bool;
  ranges : Bytes.t Dr_engine.Int_table.t;  (** [pos * (n + 1) + len] -> that range, packed *)
  zero : Bytes.t;  (** the one-bit answers *)
  one : Bytes.t;
}

type answer = Range of { pos : int; len : int } | One_bit of bool

exception Read_mutated of answer

let create ?(share = true) ~k x =
  if k <= 0 then invalid_arg "Data_source.create";
  {
    bits = x;
    share;
    counts = Array.make k 0;
    ranges = Dr_engine.Int_table.create 8;
    zero = Bytes.make 1 '\000';
    one = Bytes.make 1 '\001';
  }

let n t = Bitarray.length t.bits

let query t ~peer i =
  if peer < 0 || peer >= Array.length t.counts then invalid_arg "Data_source.query: bad peer";
  if i < 0 || i >= Bitarray.length t.bits then invalid_arg "Data_source.query: bad index";
  (* Validate first: a rejected query reads nothing, so it costs nothing. *)
  t.counts.(peer) <- t.counts.(peer) + 1;
  Bitarray.get t.bits i

let query_fn t ~peer i = query t ~peer i

(* Validate first, so a rejected read charges nothing. A shared range is
   packed once, on its first read, and every later read of it gets those
   bytes. *)
let read_range t ~peer ~pos ~len =
  if peer < 0 || peer >= Array.length t.counts then invalid_arg "Data_source.read_range: bad peer";
  let n = n t in
  if pos < 0 || len < 0 || pos > n - len then invalid_arg "Data_source.read_range: bad range";
  let bytes =
    if len = 1 then if Bitarray.get t.bits pos then t.one else t.zero
    else
      let key = (pos * (n + 1)) + len in
      match Dr_engine.Int_table.find_opt t.ranges key with
      | Some bytes -> bytes
      | None ->
        let bytes = Bitarray.sub_bytes t.bits ~pos ~len in
        if t.share then Dr_engine.Int_table.add t.ranges key bytes;
        bytes
  in
  t.counts.(peer) <- t.counts.(peer) + len;
  bytes

let check_reads t =
  let n = n t in
  Dr_engine.Int_table.iter
    (fun key bytes ->
      let pos = key / (n + 1) and len = key mod (n + 1) in
      if not (Bytes.equal bytes (Bitarray.sub_bytes t.bits ~pos ~len)) then
        raise (Read_mutated (Range { pos; len })))
    t.ranges;
  if not (Bytes.equal t.zero (Bytes.make 1 '\000')) then raise (Read_mutated (One_bit false));
  if not (Bytes.equal t.one (Bytes.make 1 '\001')) then raise (Read_mutated (One_bit true))

let queries_by t peer = t.counts.(peer)
let total_queries t = Array.fold_left ( + ) 0 t.counts
