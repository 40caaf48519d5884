type t = { bits : Bitarray.t; counts : int array }

let create ~k x =
  if k <= 0 then invalid_arg "Data_source.create";
  { bits = x; counts = Array.make k 0 }

let n t = Bitarray.length t.bits

let query t ~peer i =
  if peer < 0 || peer >= Array.length t.counts then invalid_arg "Data_source.query: bad peer";
  if i < 0 || i >= Bitarray.length t.bits then invalid_arg "Data_source.query: bad index";
  (* Validate first: a rejected query reads nothing, so it costs nothing. *)
  t.counts.(peer) <- t.counts.(peer) + 1;
  Bitarray.get t.bits i

let query_fn t ~peer i = query t ~peer i

let read_range t ~peer ~pos ~len buf =
  if peer < 0 || peer >= Array.length t.counts then invalid_arg "Data_source.read_range: bad peer";
  (* The copy validates the range and the buffer before writing, so a
     rejected read charges nothing. *)
  Bitarray.blit_to_bytes ~src:t.bits ~pos ~len buf;
  t.counts.(peer) <- t.counts.(peer) + len

let queries_by t peer = t.counts.(peer)
let total_queries t = Array.fold_left ( + ) 0 t.counts
