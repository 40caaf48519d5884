module Bitarray = Dr_source.Bitarray

(* One segment's reports. The leader, a string with the largest count, sits
   in [lead] with its count; every other distinct string sits in
   [others.(0 .. rest-1)], its count at the same index of [counts]. *)
type tally = {
  mutable lead : Bitarray.t;
  mutable lead_count : int;  (** 0 until the segment's first report *)
  mutable others : Bitarray.t array;
  mutable counts : int array;
  mutable rest : int;
}

type t = {
  mutable per_seg : tally array;
  mutable seen : Bytes.t;  (** byte [p] is nonzero once peer [p] has reported *)
  mutable reporters : int;
}

let create () = { per_seg = [||]; seen = Bytes.empty; reporters = 0 }

let seen t peer = peer < Bytes.length t.seen && Bytes.get_uint8 t.seen peer <> 0

let mark t peer =
  let cur = Bytes.length t.seen in
  if peer >= cur then begin
    let grown = Bytes.make (Int.max (peer + 1) (Int.max 16 (2 * cur))) '\000' in
    Bytes.blit t.seen 0 grown 0 cur;
    t.seen <- grown
  end;
  Bytes.set t.seen peer '\001';
  t.reporters <- t.reporters + 1

(* A new segment's [lead] is [s], a placeholder until its first report. *)
let ensure t seg s =
  let cur = Array.length t.per_seg in
  if seg >= cur then
    t.per_seg <-
      Array.init (Int.max (seg + 1) (Int.max 4 (2 * cur))) (fun j ->
          if j < cur then t.per_seg.(j)
          else { lead = s; lead_count = 0; others = [||]; counts = [||]; rest = 0 })

let same a b = a == b || Bitarray.equal a b

let rec index g s i = if i < 0 || same g.others.(i) s then i else index g s (i - 1)

let push g s =
  if g.rest = Array.length g.others then begin
    let cap = Int.max 4 (2 * g.rest) in
    let others = Array.make cap s and counts = Array.make cap 0 in
    Array.blit g.others 0 others 0 g.rest;
    Array.blit g.counts 0 counts 0 g.rest;
    g.others <- others;
    g.counts <- counts
  end;
  g.others.(g.rest) <- s;
  g.counts.(g.rest) <- 1;
  g.rest <- g.rest + 1

let add t ~seg ~peer s =
  if seg < 0 then invalid_arg "Frequent.add: negative segment";
  if peer < 0 then invalid_arg "Frequent.add: negative peer";
  if seen t peer then false
  else begin
    mark t peer;
    ensure t seg s;
    let g = t.per_seg.(seg) in
    if g.lead_count = 0 then g.lead <- s;
    if same s g.lead then g.lead_count <- g.lead_count + 1
    else begin
      let i = index g s (g.rest - 1) in
      if i < 0 then push g s
      else if g.counts.(i) < g.lead_count then g.counts.(i) <- g.counts.(i) + 1
      else begin
        (* A string tied with the leader overtakes it and trades places:
           slot [i]'s count is already the old leader's. *)
        let s = g.others.(i) in
        g.others.(i) <- g.lead;
        g.lead <- s;
        g.lead_count <- g.lead_count + 1
      end
    end;
    true
  end

let reporters t = t.reporters

(* [f s c] for each string [s] of segment [seg] whose count [c] is at least
   [rho] (at least 1), in decreasing {!Bitarray.compare} order of [key].
   No other string can reach [rho] when the leader does not. *)
let collect t ~seg ~rho f key =
  if seg >= Array.length t.per_seg || t.per_seg.(seg).lead_count < Int.max 1 rho then []
  else begin
    let g = t.per_seg.(seg) in
    let acc = ref [ f g.lead g.lead_count ] in
    for i = 0 to g.rest - 1 do
      if g.counts.(i) >= rho then acc := f g.others.(i) g.counts.(i) :: !acc
    done;
    (* [List.sort] allocates its closures even for one element. *)
    match !acc with
    | [ _ ] as one -> one
    | many -> List.sort (fun a b -> Bitarray.compare (key b) (key a)) many
  end

let strings_for t ~seg = collect t ~seg ~rho:1 (fun s c -> (s, c)) fst

let frequent t ~seg ~rho = collect t ~seg ~rho (fun s _ -> s) Fun.id

let has_frequent t ~seg ~rho =
  seg < Array.length t.per_seg && t.per_seg.(seg).lead_count >= Int.max 1 rho

let rec covered_from t seg ~segments ~rho =
  seg >= segments || (has_frequent t ~seg ~rho && covered_from t (seg + 1) ~segments ~rho)

let covered t ~segments ~rho = covered_from t 0 ~segments ~rho
