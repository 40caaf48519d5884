(* Struct-of-arrays 4-ary min-heap. Times live in a flat float array
   (unboxed), sequence numbers and values in int arrays, so a move stores
   no pointer and needs no write barrier. The sifts take the index of the
   element they move and read its key from the arrays, so no float crosses
   a function call inside this module: a boxed float argument would
   allocate on every pop. Four children per node halve the depth of a
   binary heap; each level costs three more comparisons, but they read
   adjacent slots. The (time, seq) order is strict and total, so the pop
   sequence is the sorted order whatever the heap's shape. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; values = [||]; len = 0; next_seq = 0 }

(* Strict (time, seq) lexicographic order between slots [i] and [j]. *)
let[@inline] lt h i j =
  let ti = Array.unsafe_get h.times i and tj = Array.unsafe_get h.times j in
  ti < tj || (ti = tj && Array.unsafe_get h.seqs i < Array.unsafe_get h.seqs j)

let grow h =
  let extend a fill =
    let b = Array.make (Int.max 16 (2 * h.len)) fill in
    Array.blit a 0 b 0 h.len;
    b
  in
  h.times <- extend h.times 0.;
  h.seqs <- extend h.seqs 0;
  h.values <- extend h.values 0

(* Inlined, so its float argument is never boxed. *)
let[@inline] set h i ~time ~seq value =
  Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.values i value

let[@inline] move h ~src ~dst =
  set h dst ~time:(Array.unsafe_get h.times src) ~seq:(Array.unsafe_get h.seqs src)
    (Array.unsafe_get h.values src)

(* Hole-based sifts: the moving element's key stays in locals and each
   visited slot is written once, instead of swapping. *)

(* Sift the element in slot [i] up towards the root. *)
let sift_up h i =
  let time = Array.unsafe_get h.times i
  and seq = Array.unsafe_get h.seqs i
  and value = Array.unsafe_get h.values i in
  let i = ref i in
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
  set h !i ~time ~seq value

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
      (* Index of the smallest child. *)
      let c = ref first in
      let last = if first + 3 < len then first + 3 else len - 1 in
      for j = first + 1 to last do
        if lt h j !c then c := j
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

let push h ~time value =
  if h.len = Array.length h.values then grow h;
  let i = h.len in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.len <- i + 1;
  set h i ~time:time.(0) ~seq value;
  sift_up h i

let is_empty h = h.len = 0

let pop_min h ~time =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty";
  time.(0) <- Array.unsafe_get h.times 0;
  let v = Array.unsafe_get h.values 0 in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then sift_down h last;
  v
