(* Counters live in one flat int array, [stride] slots per peer, updated with
   unsafe accesses and a branch-free integer max: the on_* hooks run once per
   simulated event, so they must cost a handful of instructions and zero
   allocations. The [peer] record is only materialized on demand. *)

type peer = {
  mutable queries : int;
  mutable msgs_sent : int;
  mutable bits_sent : int;
  mutable max_msg_bits : int;
}

let stride = 4

(* Field offsets within a peer's slice. *)
let f_queries = 0
let f_msgs_sent = 1
let f_bits_sent = 2
let f_max_msg_bits = 3

type t = { k : int; data : int array }

let create k = { k; data = Array.make (k * stride) 0 }

let peer t i =
  if i < 0 || i >= t.k then invalid_arg "Metrics.peer: bad index";
  let base = i * stride in
  {
    queries = t.data.(base + f_queries);
    msgs_sent = t.data.(base + f_msgs_sent);
    bits_sent = t.data.(base + f_bits_sent);
    max_msg_bits = t.data.(base + f_max_msg_bits);
  }

(* max(a, b) without a conditional branch: valid for native ints (the sign
   of [b - a] cannot overflow for the counter magnitudes involved). *)
let[@inline] imax a b =
  let d = b - a in
  a + (d land lnot (d asr (Sys.int_size - 1)))

let[@inline] queries t i = Array.unsafe_get t.data ((i * stride) + f_queries)
let[@inline] msgs_sent t i = Array.unsafe_get t.data ((i * stride) + f_msgs_sent)
let[@inline] on_query t i ~bits =
  let idx = (i * stride) + f_queries in
  Array.unsafe_set t.data idx (Array.unsafe_get t.data idx + bits)

let on_send t i ~count ~size_bits =
  let base = i * stride in
  Array.unsafe_set t.data (base + f_msgs_sent)
    (Array.unsafe_get t.data (base + f_msgs_sent) + count);
  Array.unsafe_set t.data (base + f_bits_sent)
    (Array.unsafe_get t.data (base + f_bits_sent) + (count * size_bits));
  Array.unsafe_set t.data (base + f_max_msg_bits)
    (imax (Array.unsafe_get t.data (base + f_max_msg_bits)) size_bits)

let add acc m =
  if acc.k <> m.k then invalid_arg "Metrics.add: meters of different sizes";
  Array.iteri
    (fun idx v ->
      acc.data.(idx) <-
        (if idx mod stride = f_max_msg_bits then imax acc.data.(idx) v else acc.data.(idx) + v))
    m.data

type summary = {
  max_queries : int;
  total_queries : int;
  total_msgs : int;
  total_bits : int;
  max_msg_bits : int;
  mean_queries : float;
}

let summarize ?(select = fun _ -> true) t =
  let max_queries = ref 0
  and total_queries = ref 0
  and total_msgs = ref 0
  and total_bits = ref 0
  and max_msg_bits = ref 0
  and selected = ref 0 in
  for i = 0 to t.k - 1 do
    if select i then begin
      let base = i * stride in
      incr selected;
      let q = t.data.(base + f_queries) in
      max_queries := imax !max_queries q;
      total_queries := !total_queries + q;
      total_msgs := !total_msgs + t.data.(base + f_msgs_sent);
      total_bits := !total_bits + t.data.(base + f_bits_sent);
      max_msg_bits := imax !max_msg_bits t.data.(base + f_max_msg_bits)
    end
  done;
  {
    max_queries = !max_queries;
    total_queries = !total_queries;
    total_msgs = !total_msgs;
    total_bits = !total_bits;
    max_msg_bits = !max_msg_bits;
    mean_queries =
      (if !selected = 0 then 0. else float_of_int !total_queries /. float_of_int !selected);
  }
