(* An epoch maps time [t] to window [trunc ((t - base) * scale)], monotone
   in [t]: equal times share a window and a lower window holds only
   earlier times. The far array and the windows are chunked: entry [j]
   sits at offset [j land mask] of chunk [j lsr bits]; chunk 0 doubles up
   to [chunk] entries and later chunks are never copied, so growth leaves
   no garbage past the first chunk. The window being popped is the run
   (sorted, when small) merged with the heap, which holds the rest of that
   window with fresh sequence numbers and every push below it; a run entry
   wins a tie, having been pushed before any heap entry. A far array loaded
   whole leaves [base] at its largest time, [scale] 1 and no window. Times
   are read from arrays, never passed to a function that is not inlined:
   that would box them. *)

type t = {
  mutable times : float array;  (** the heap, struct-of-arrays: no write barrier *)
  mutable seqs : int array;
  mutable values : int array;
  mutable len : int;
  mutable next_seq : int;
  run_times : float array;  (** the current window, sorted by (time, push order) *)
  run_values : int array;
  mutable run_pos : int;
  mutable run_len : int;
  mutable far_times : float array array;  (** the far array, in push order *)
  mutable far_values : int array array;
  mutable far_len : int;
  mutable capacity : int;  (** of the far array and of the windows alike *)
  mutable win_times : float array array;  (** the epoch's windows, one after another *)
  mutable win_values : int array array;
  mutable ends : int array;  (** where each window ends *)
  mutable tails : int array;  (** the last of each window's overflow, or -1 *)
  mutable ov_times : float array;  (** the epoch's overflow, in push order *)
  mutable ov_values : int array;
  mutable ov_next : int array;  (** circular per window: a tail's successor is its head *)
  mutable ov_len : int;
  mutable from : int;  (** where the next window starts *)
  mutable cur : int;
  mutable nwin : int;
  mutable count : int;
  f : float array;  (** indexed by the constants below *)
}

(* The window map, then the far array's least time, greatest time and
   greatest finite time. *)
let base = 0 and scale = 1 and lo = 2 and hi = 3 and fmax = 4

(* Far arrays of at most this many entries go whole into the heap. *)
let short = 64

(* Windows of at most this many entries are sorted into the run; larger
   ones go into the heap. *)
let run_max = 32

(* Entries per chunk. *)
let bits = 10
let chunk = 1 lsl bits
let mask = chunk - 1

let create () =
  { times = [||]; seqs = [||]; values = [||]; len = 0; next_seq = 0;
    run_times = Array.make run_max 0.; run_values = Array.make run_max 0; run_pos = 0;
    run_len = 0; far_times = [||]; far_values = [||]; far_len = 0; capacity = 0;
    win_times = [||]; win_values = [||]; ends = [||]; tails = [||]; ov_times = [||];
    ov_values = [||]; ov_next = [||]; ov_len = 0; from = 0; cur = -1; nwin = 0; count = 0;
    f = [| neg_infinity; 1.; infinity; neg_infinity; neg_infinity |] }

let clear h =
  h.len <- 0; h.next_seq <- 0; h.run_pos <- 0; h.run_len <- 0; h.far_len <- 0; h.ov_len <- 0;
  h.cur <- -1; h.nwin <- 0; h.count <- 0;
  let f = h.f in
  f.(base) <- neg_infinity; f.(scale) <- 1.; f.(lo) <- infinity; f.(hi) <- neg_infinity;
  f.(fmax) <- neg_infinity

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Room for one more far entry, and as much in the windows: chunk 0
   doubles until it is whole, then a chunk is added. *)
let grow h =
  let n = h.capacity in
  if n < chunk then begin
    let m = Int.max short (2 * n) in
    if n = 0 then begin
      h.far_times <- [| [||] |]; h.far_values <- [| [||] |];
      h.win_times <- [| [||] |]; h.win_values <- [| [||] |]
    end;
    h.far_times.(0) <- extend h.far_times.(0) m 0.;
    h.far_values.(0) <- extend h.far_values.(0) m 0;
    h.win_times.(0) <- extend h.win_times.(0) m 0.;
    h.win_values.(0) <- extend h.win_values.(0) m 0;
    h.capacity <- m
  end
  else begin
    let k = n lsr bits in
    if k = Array.length h.far_times then begin
      h.far_times <- extend h.far_times (2 * k) [||];
      h.far_values <- extend h.far_values (2 * k) [||];
      h.win_times <- extend h.win_times (2 * k) [||];
      h.win_values <- extend h.win_values (2 * k) [||]
    end;
    h.far_times.(k) <- Array.make chunk 0.;
    h.far_values.(k) <- Array.make chunk 0;
    h.win_times.(k) <- Array.make chunk 0.;
    h.win_values.(k) <- Array.make chunk 0;
    h.capacity <- n + chunk
  end;
  (* Bounds for as many windows as a spread of [capacity] entries makes. *)
  let w = (h.capacity / 4) + 2 in
  if Array.length h.ends < w then begin
    let m = Int.max w (2 * Array.length h.ends) in
    h.ends <- extend h.ends m 0;
    h.tails <- extend h.tails m (-1)
  end

(* Entry [j] of a chunked array, read and written by inlined functions, so
   a time is never boxed. *)
let[@inline] time_at (c : float array array) j =
  Array.unsafe_get (Array.unsafe_get c (j lsr bits)) (j land mask)

let[@inline] value_at (c : int array array) j =
  Array.unsafe_get (Array.unsafe_get c (j lsr bits)) (j land mask)

let[@inline] set_entry (times : float array array) (values : int array array) j t v =
  Array.unsafe_set (Array.unsafe_get times (j lsr bits)) (j land mask) t;
  Array.unsafe_set (Array.unsafe_get values (j lsr bits)) (j land mask) v

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

(* [v] at [src.(i)] into the heap with a fresh sequence number, sifted up
   from the end. *)
let insert h src i v =
  if h.len = Array.length h.values then grow_heap h;
  let time = Array.unsafe_get src i and seq = h.next_seq in
  let i = ref h.len in
  h.len <- h.len + 1;
  h.next_seq <- seq + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pt = Array.unsafe_get h.times parent in
    if Fl.(time < pt) || (Fl.(time = pt) && seq < Array.unsafe_get h.seqs parent) then begin
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
        if Fl.(tj < tc) || (Fl.(tj = tc) && Array.unsafe_get h.seqs j < Array.unsafe_get h.seqs !c)
        then c := j
      done;
      let c = !c in
      let ct = Array.unsafe_get h.times c in
      if Fl.(ct < time) || (Fl.(ct = time) && Array.unsafe_get h.seqs c < seq) then begin
        move h ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    end
  done;
  set h !i ~time ~seq value

(* Entries [first] to [last - 1] of a chunked array into the heap, in
   order. *)
let insert_entries h times values first last =
  for j = first to last - 1 do
    insert h (Array.unsafe_get times (j lsr bits)) (j land mask) (value_at values j)
  done

let push_far h time v =
  let n = h.far_len and f = h.f in
  if n = h.capacity then grow h;
  let t = time.(0) in
  set_entry h.far_times h.far_values n t v;
  h.far_len <- n + 1;
  if Fl.(t < Array.unsafe_get f lo) then Array.unsafe_set f lo t;
  if Fl.(t > Array.unsafe_get f hi) then Array.unsafe_set f hi t;
  if Fl.(t > Array.unsafe_get f fmax && t < infinity) then Array.unsafe_set f fmax t

(* Append [v], at [times.(i)], to window [w]'s overflow. *)
let push_overflow h w times i v =
  let o = h.ov_len in
  if o = Array.length h.ov_times then begin
    let m = Int.max 16 (2 * o) in
    h.ov_times <- extend h.ov_times m 0.;
    h.ov_values <- extend h.ov_values m 0;
    h.ov_next <- extend h.ov_next m 0
  end;
  Array.unsafe_set h.ov_times o (Array.unsafe_get times i);
  Array.unsafe_set h.ov_values o v;
  h.ov_len <- o + 1;
  let tail = h.tails.(w) in
  if tail < 0 then Array.unsafe_set h.ov_next o o
  else begin
    Array.unsafe_set h.ov_next o (Array.unsafe_get h.ov_next tail);
    Array.unsafe_set h.ov_next tail o
  end;
  h.tails.(w) <- o

(* Window [w] into the empty run and heap: its spread entries sorted into
   the run by insertion (stable, so equal times keep push order) if they
   are few, else into the heap; then its overflow into the heap. *)
let load h w =
  let first = h.from and last = h.ends.(w) in
  h.from <- last;
  if last - first <= run_max then begin
    let rt = h.run_times and rv = h.run_values in
    for j = first to last - 1 do
      let t = time_at h.win_times j and v = value_at h.win_values j in
      let i = ref (j - first) in
      while !i > 0 && Fl.(Array.unsafe_get rt (!i - 1) > t) do
        Array.unsafe_set rt !i (Array.unsafe_get rt (!i - 1));
        Array.unsafe_set rv !i (Array.unsafe_get rv (!i - 1));
        decr i
      done;
      Array.unsafe_set rt !i t;
      Array.unsafe_set rv !i v
    done;
    h.run_pos <- 0;
    h.run_len <- last - first
  end
  else insert_entries h h.win_times h.win_values first last;
  let tail = h.tails.(w) in
  if tail >= 0 then begin
    let o = ref tail in
    let continue = ref true in
    while !continue do
      o := Array.unsafe_get h.ov_next !o;
      insert h h.ov_times !o (Array.unsafe_get h.ov_values !o);
      continue := !o <> tail
    done
  end

(* Spread the [n] far entries over [nwin] windows by the map in [f]: a
   stable counting sort puts each window's entries, in push order, one
   window after another; the entries past every window (+inf ones) stay
   in the far array, in order. *)
let spread h n nwin =
  let f = h.f and ends = h.ends in
  let least = f.(base) and s = f.(scale) and limit = float_of_int nwin in
  (* Window sizes, then their starts. *)
  Array.fill ends 0 nwin 0;
  for i = 0 to n - 1 do
    let x = (time_at h.far_times i -. least) *. s in
    if Fl.(x < limit) then begin
      let w = int_of_float x in
      ends.(w) <- ends.(w) + 1
    end
  done;
  let total = ref 0 in
  for w = 0 to nwin - 1 do
    let size = ends.(w) in
    ends.(w) <- !total;
    total := !total + size
  done;
  Array.fill h.tails 0 nwin (-1);
  h.from <- 0;
  h.cur <- -1;
  h.nwin <- nwin;
  (* Scatter; each start advances to its window's end. *)
  for i = 0 to n - 1 do
    let t = time_at h.far_times i and v = value_at h.far_values i in
    let x = (t -. least) *. s in
    if Fl.(x < limit) then begin
      let w = int_of_float x in
      let j = ends.(w) in
      set_entry h.win_times h.win_values j t v;
      ends.(w) <- j + 1
    end
    else begin
      set_entry h.far_times h.far_values h.far_len t v;
      h.far_len <- h.far_len + 1;
      if Fl.(t < f.(lo)) then f.(lo) <- t;
      if Fl.(t > f.(hi)) then f.(hi) <- t;
      if Fl.(t > f.(fmax) && t < infinity) then f.(fmax) <- t
    end
  done

(* Start an epoch from the far array: spread over windows of about four
   entries if it is longer than [short] and its finite times spread,
   otherwise whole into the heap. *)
let rebuild h =
  let n = h.far_len and f = h.f in
  if n = 0 then failwith "Heap: entries pending outside every window";
  let windows = (n / 4) + 1 and least = f.(lo) and most = f.(hi) in
  (* Neither 0 nor infinite only if finite times spread and none is -inf:
     the greatest finite time maps to about [windows]. *)
  let s = float_of_int windows /. (f.(fmax) -. least) in
  f.(lo) <- infinity;
  f.(hi) <- neg_infinity;
  f.(fmax) <- neg_infinity;
  h.far_len <- 0;
  h.ov_len <- 0;
  if n > short && Fl.(s > 0. && s < infinity) then begin
    f.(base) <- least;
    f.(scale) <- s;
    spread h n (windows + 1)
  end
  else begin
    f.(base) <- most;
    f.(scale) <- 1.;
    h.cur <- -1;
    h.nwin <- 0;
    insert_entries h h.far_times h.far_values 0 n
  end

let push h ~time v =
  let t = time.(0) in
  if Float.is_nan t then invalid_arg "Heap.push: NaN time";
  if Array.length h.times = 0 then grow_heap h;
  h.count <- h.count + 1;
  let f = h.f in
  let x = (t -. Array.unsafe_get f base) *. Array.unsafe_get f scale in
  if Fl.(x < float_of_int (h.cur + 1)) then insert h time 0 v
  else if Fl.(x < float_of_int h.nwin) then push_overflow h (int_of_float x) time 0 v
  else push_far h time v

(* Each entry goes where its own [push] would. Placing one moves no
   window and reads none of the far array's bounds, so the window map is
   read once and the bounds are kept in locals, stored back at the end;
   a far entry, most of a batch, is appended here as [push_far] would. *)
let push_many h ~times values n =
  if n < 0 || n > Array.length times || n > Array.length values then
    invalid_arg "Heap.push_many: count out of range";
  for i = 0 to n - 1 do
    if Float.is_nan (Array.unsafe_get times i) then invalid_arg "Heap.push_many: NaN time"
  done;
  if Array.length h.times = 0 then grow_heap h;
  h.count <- h.count + n;
  let f = h.f in
  let least = f.(base) and s = f.(scale) in
  let heap_end = float_of_int (h.cur + 1) and windows_end = float_of_int h.nwin in
  let far_lo = ref f.(lo) and far_hi = ref f.(hi) and far_max = ref f.(fmax) in
  for i = 0 to n - 1 do
    let t = Array.unsafe_get times i and v = Array.unsafe_get values i in
    let x = (t -. least) *. s in
    if Fl.(x < heap_end) then insert h times i v
    else if Fl.(x < windows_end) then push_overflow h (int_of_float x) times i v
    else begin
      let j = h.far_len in
      if j = h.capacity then grow h;
      set_entry h.far_times h.far_values j t v;
      h.far_len <- j + 1;
      if Fl.(t < !far_lo) then far_lo := t;
      if Fl.(t > !far_hi) then far_hi := t;
      if Fl.(t > !far_max && t < infinity) then far_max := t
    end
  done;
  f.(lo) <- !far_lo;
  f.(hi) <- !far_hi;
  f.(fmax) <- !far_max

let is_empty h = h.count = 0

let pop_min h ~time =
  if h.count = 0 then invalid_arg "Heap.pop_min: empty";
  (* Load the next window, or rebuild, until the run or the heap has
     entries. *)
  while h.len = 0 && h.run_pos = h.run_len do
    if h.cur + 1 < h.nwin then begin
      h.cur <- h.cur + 1;
      load h h.cur
    end
    else rebuild h
  done;
  h.count <- h.count - 1;
  let p = h.run_pos in
  if p < h.run_len
     && (h.len = 0 || Fl.(Array.unsafe_get h.run_times p <= Array.unsafe_get h.times 0))
  then begin
    time.(0) <- Array.unsafe_get h.run_times p;
    h.run_pos <- p + 1;
    Array.unsafe_get h.run_values p
  end
  else begin
    time.(0) <- Array.unsafe_get h.times 0;
    let v = Array.unsafe_get h.values 0 in
    let last = h.len - 1 in
    h.len <- last;
    if last > 0 then sift_down h last;
    v
  end
