type 'a t = {
  mutable data : 'a array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create () = { data = [||]; head = 0; len = 0 }

let is_empty r = r.len = 0

(* [value] seeds fresh slots, so no dummy element is needed. *)
let grow r value =
  let cap = Array.length r.data in
  if cap = 0 then begin
    r.data <- Array.make 8 value;
    r.head <- 0
  end
  else begin
    let data = Array.make (2 * cap) value in
    (* Unroll the circle into the front of the new array. *)
    let first = cap - r.head in
    Array.blit r.data r.head data 0 first;
    Array.blit r.data 0 data first (r.len - first);
    r.data <- data;
    r.head <- 0
  end

let push r value =
  if r.len = Array.length r.data then grow r value;
  let cap = Array.length r.data in
  let tail = r.head + r.len in
  let tail = if tail >= cap then tail - cap else tail in
  Array.unsafe_set r.data tail value;
  r.len <- r.len + 1

(* Popped slots keep their stale reference until overwritten by a later push
   (bounded by capacity) — same trade as {!Heap} for an allocation-free pop. *)
let pop r =
  if r.len = 0 then invalid_arg "Ring.pop: empty";
  let v = Array.unsafe_get r.data r.head in
  let head = r.head + 1 in
  r.head <- (if head = Array.length r.data then 0 else head);
  r.len <- r.len - 1;
  v
