module Bitarray = Dr_source.Bitarray

module Strmap = Map.Make (struct
  type t = Bitarray.t

  let compare = Bitarray.compare
end)

type t = {
  mutable per_seg : int Strmap.t array;  (** segment -> string -> reporter count *)
  mutable seen : Bytes.t;  (** byte [p] is nonzero once peer [p] has reported *)
  mutable reporters : int;
  mutable totals : int array;
}

let create () = { per_seg = [||]; seen = Bytes.empty; reporters = 0; totals = [||] }

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
    let totals = Array.make (Array.length grown) 0 in
    Array.blit t.totals 0 totals 0 cur;
    t.totals <- totals
  end

let bump = function Some c -> Some (c + 1) | None -> Some 1

let add t ~seg ~peer s =
  if seg < 0 then invalid_arg "Frequent.add: negative segment";
  if peer < 0 then invalid_arg "Frequent.add: negative peer";
  if seen t peer then false
  else begin
    mark t peer;
    ensure t seg;
    t.per_seg.(seg) <- Strmap.update s bump t.per_seg.(seg);
    t.totals.(seg) <- t.totals.(seg) + 1;
    true
  end

let reporters t = t.reporters
let total_for t ~seg = if seg < Array.length t.totals then t.totals.(seg) else 0

let strings_for t ~seg =
  if seg >= Array.length t.per_seg then []
  else Strmap.fold (fun s c acc -> (s, c) :: acc) t.per_seg.(seg) []

let frequent t ~seg ~rho =
  List.filter_map (fun (s, c) -> if c >= rho then Some s else None) (strings_for t ~seg)

let covered t ~segments ~rho =
  let rec go seg = seg >= segments || (frequent t ~seg ~rho <> [] && go (seg + 1)) in
  go 0
