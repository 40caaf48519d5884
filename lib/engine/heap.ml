(* An epoch maps time [t] to window [trunc ((t - base) * scale)], monotone
   in [t]: equal times share a container and a lower window holds only
   earlier times, so a window loaded into the empty heap with fresh
   sequence numbers pops in (time, insertion) order. The heap holds window
   [cur] and every push below it. A far list loaded whole leaves [base] at
   its largest time, [scale] 1 and no window. Times are read from arrays,
   never passed to a function that is not inlined: that would box them. *)

type t = {
  mutable times : float array;  (** the heap, struct-of-arrays: no write barrier *)
  mutable seqs : int array;
  mutable values : int array;
  mutable len : int;
  mutable next_seq : int;
  mutable at : float array;  (** a value's time, at the value's index *)
  mutable next : int array;  (** a queued value's successor; -1 ends a list *)
  mutable lists : int array;  (** head, tail: far list at 0, 1, window [w] at 2w+2, 2w+3 *)
  mutable cur : int;
  mutable nwin : int;
  mutable far_len : int;
  mutable count : int;
  f : float array;  (** indexed by the constants below *)
}

(* The window map, then the far list's least time, greatest time and
   greatest finite time. *)
let base = 0 and scale = 1 and lo = 2 and hi = 3 and fmax = 4

(* Far lists of at most this many entries go whole into the heap. *)
let short = 64

let create () =
  { times = [||]; seqs = [||]; values = [||]; len = 0; next_seq = 0; at = [||]; next = [||];
    lists = [| -1; -1 |]; cur = -1; nwin = 0; far_len = 0; count = 0;
    f = [| neg_infinity; 1.; infinity; neg_infinity; neg_infinity |] }

let clear h =
  h.len <- 0; h.next_seq <- 0; h.cur <- -1; h.nwin <- 0; h.far_len <- 0; h.count <- 0;
  Array.fill h.lists 0 (Array.length h.lists) (-1);
  Array.blit (create ()).f 0 h.f 0 (Array.length h.f)

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Inlined, so its float argument is never boxed. *)
let[@inline] set h i ~time ~seq value =
  Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.values i value

let[@inline] move h ~src ~dst =
  set h dst ~time:(Array.unsafe_get h.times src) ~seq:(Array.unsafe_get h.seqs src)
    (Array.unsafe_get h.values src)

let grow_heap h =
  let n = Int.max short (2 * h.len) in
  h.times <- extend h.times n 0.;
  h.seqs <- extend h.seqs n 0;
  h.values <- extend h.values n 0

(* Hole-based sifts: the moving element's key stays in locals and each
   visited slot is written once, instead of swapping. *)

(* Into the heap with a fresh sequence number, sifted up from the end. *)
let insert h v =
  if h.len = Array.length h.values then grow_heap h;
  let time = Array.unsafe_get h.at v and seq = h.next_seq in
  let i = ref h.len in
  h.len <- h.len + 1;
  h.next_seq <- seq + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pt = Array.unsafe_get h.times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get h.seqs parent) then begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  set h !i ~time ~seq v

(* Move the element in slot [src] (at or past [len], so out of the live
   region) into the hole at the root and sift it down. *)
let sift_down h src =
  let time = Array.unsafe_get h.times src
  and seq = Array.unsafe_get h.seqs src
  and value = Array.unsafe_get h.values src in
  let len = h.len in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= len then continue := false
    else begin
      (* The smallest child by strict (time, seq) order. *)
      let c = ref first in
      let last = if first + 3 < len then first + 3 else len - 1 in
      for j = first + 1 to last do
        let tj = Array.unsafe_get h.times j and tc = Array.unsafe_get h.times !c in
        if tj < tc || (tj = tc && Array.unsafe_get h.seqs j < Array.unsafe_get h.seqs !c) then c := j
      done;
      let c = !c in
      let ct = Array.unsafe_get h.times c in
      if ct < time || (ct = time && Array.unsafe_get h.seqs c < seq) then begin
        move h ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  set h !i ~time ~seq value

(* Append [v] to the list whose head is at [h.lists.(i)]. *)
let append h i v =
  Array.unsafe_set h.next v (-1);
  if h.lists.(i) < 0 then h.lists.(i) <- v else Array.unsafe_set h.next h.lists.(i + 1) v;
  h.lists.(i + 1) <- v

(* Queue [v] at [h.at.(v)]: into the heap, a window list or the far list. *)
let place h v =
  let t = Array.unsafe_get h.at v and f = h.f in
  let x = (t -. Array.unsafe_get f base) *. Array.unsafe_get f scale in
  if x < float_of_int (h.cur + 1) then insert h v
  else if x < float_of_int h.nwin then append h ((2 * int_of_float x) + 2) v
  else begin
    append h 0 v;
    h.far_len <- h.far_len + 1;
    (* Room for the next epoch's windows: only a push lengthens the far
       list past the one it was spread from. *)
    let n = Array.length h.lists in
    if n < (h.far_len / 2) + 6 then h.lists <- extend h.lists (Int.max 16 (2 * n)) (-1);
    if t < f.(lo) then f.(lo) <- t;
    if t > f.(hi) then f.(hi) <- t;
    if t > f.(fmax) && t < infinity then f.(fmax) <- t
  end

(* Empty the list whose head is at [h.lists.(i)] into [into], in order. *)
let take h i into =
  let v = ref h.lists.(i) in
  h.lists.(i) <- -1;
  while !v >= 0 do
    let u = !v in
    v := Array.unsafe_get h.next u;
    into h u
  done

(* Start an epoch from the far list. Spread, the least time maps to 0,
   into the heap, and the greatest finite one to about [windows]. *)
let rebuild h =
  let n = h.far_len and f = h.f in
  if n = 0 then failwith "Heap: entries pending outside every list";
  let windows = (n / 4) + 1 and least = f.(lo) and most = f.(hi) in
  (* Neither 0 nor infinite only if finite times spread and none is -inf. *)
  let s = float_of_int windows /. (f.(fmax) -. least) in
  let spread = n > short && s > 0. && s < infinity in
  if spread then (f.(base) <- least; f.(scale) <- s; h.cur <- 0; h.nwin <- windows + 1)
  else (f.(base) <- most; f.(scale) <- 1.; h.cur <- -1; h.nwin <- 0);
  f.(lo) <- infinity;
  f.(hi) <- neg_infinity;
  f.(fmax) <- neg_infinity;
  h.far_len <- 0;
  take h 0 (if spread then place else insert)

let push h ~time v =
  let t = time.(0) in
  if Float.is_nan t then invalid_arg "Heap.push: NaN time";
  if v >= Array.length h.at then begin
    let n = Int.max (v + 1) (Int.max 16 (2 * Array.length h.at)) in
    h.at <- extend h.at n 0.;
    h.next <- extend h.next n (-1)
  end;
  if Array.length h.times = 0 then grow_heap h;
  h.at.(v) <- t;
  h.count <- h.count + 1;
  place h v

let is_empty h = h.count = 0

let pop_min h ~time =
  if h.count = 0 then invalid_arg "Heap.pop_min: empty";
  (* Load the next window, or rebuild, until the heap has entries. *)
  while h.len = 0 do
    if h.cur + 1 < h.nwin then begin
      h.cur <- h.cur + 1;
      take h ((2 * h.cur) + 2) insert
    end
    else rebuild h
  done;
  h.count <- h.count - 1;
  time.(0) <- Array.unsafe_get h.times 0;
  let v = Array.unsafe_get h.values 0 in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then sift_down h last;
  v
