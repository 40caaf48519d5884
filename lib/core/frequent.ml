module Bitarray = Dr_source.Bitarray

module Strmap = Map.Make (struct
  type t = Bitarray.t

  let compare = Bitarray.compare
end)

type t = {
  mutable per_seg : int ref Strmap.t array;  (** segment -> string -> reporter count *)
  mutable seen : Bytes.t;  (** byte [p] is nonzero once peer [p] has reported *)
  mutable reporters : int;
  mutable lead : Bitarray.t array;  (** segment -> a string with the largest count *)
  mutable lead_count : int ref array;
      (** segment -> [lead]'s count cell, the one [per_seg] holds; a shared
          [ref 0] that is never bumped until the segment's first report *)
}

let create () =
  { per_seg = [||]; seen = Bytes.empty; reporters = 0; lead = [||]; lead_count = [||] }

let seen t peer = peer < Bytes.length t.seen && Bytes.get t.seen peer <> '\000'

let mark t peer =
  let cur = Bytes.length t.seen in
  if peer >= cur then begin
    let grown = Bytes.make (Int.max (peer + 1) (Int.max 16 (2 * cur))) '\000' in
    Bytes.blit t.seen 0 grown 0 cur;
    t.seen <- grown
  end;
  Bytes.set t.seen peer '\001';
  t.reporters <- t.reporters + 1

let ensure t seg =
  let cur = Array.length t.per_seg in
  if seg >= cur then begin
    let grown = Array.make (Int.max (seg + 1) (Int.max 4 (2 * cur))) Strmap.empty in
    Array.blit t.per_seg 0 grown 0 cur;
    t.per_seg <- grown;
    let extend a fill = Array.init (Array.length grown) (fun j -> if j < cur then a.(j) else fill) in
    t.lead <- extend t.lead (Bitarray.create 0);
    t.lead_count <- extend t.lead_count (ref 0)
  end

let add t ~seg ~peer s =
  if seg < 0 then invalid_arg "Frequent.add: negative segment";
  if peer < 0 then invalid_arg "Frequent.add: negative peer";
  if seen t peer then false
  else begin
    mark t peer;
    ensure t seg;
    let lead = t.lead_count.(seg) in
    (* A copy of the leader, physical or byte-equal, skips the map. *)
    if !lead > 0 && (s == t.lead.(seg) || Bitarray.compare s t.lead.(seg) = 0) then incr lead
    else begin
      (* A repeated string bumps its count in place: no path copy. *)
      let c =
        match Strmap.find_opt s t.per_seg.(seg) with
        | Some c ->
          incr c;
          c
        | None ->
          let c = ref 1 in
          t.per_seg.(seg) <- Strmap.add s c t.per_seg.(seg);
          c
      in
      if !c > !lead then begin
        t.lead.(seg) <- s;
        t.lead_count.(seg) <- c
      end
    end;
    true
  end

let reporters t = t.reporters

let strings_for t ~seg =
  if seg >= Array.length t.per_seg then []
  else Strmap.fold (fun s c acc -> (s, !c) :: acc) t.per_seg.(seg) []

let total_for t ~seg = List.fold_left (fun n (_, c) -> n + c) 0 (strings_for t ~seg)

let frequent t ~seg ~rho =
  List.filter_map (fun (s, c) -> if c >= rho then Some s else None) (strings_for t ~seg)

let has_frequent t ~seg ~rho =
  seg < Array.length t.lead_count && !(t.lead_count.(seg)) >= Int.max 1 rho

let rec covered_from t seg ~segments ~rho =
  seg >= segments || (has_frequent t ~seg ~rho && covered_from t (seg + 1) ~segments ~rho)

let covered t ~segments ~rho = covered_from t 0 ~segments ~rho
