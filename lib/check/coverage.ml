(* The campaign's coverage map: signature -> hit count.

   Signatures come from a Dr_engine.Explore.probe (hashed
   phase × event-kind × round-bucket keys); the map only ever sees the
   distinct signatures of one run at a time (a probe's hits), so a "hit"
   counts runs that lit a signature, not raw events. Only counts are read
   out ([note]'s fresh count, [distinct], [hits]), so the table's iteration
   order never leaks into the campaign's output. *)

module Int_table = Dr_engine.Int_table

type t = int Int_table.t

let create () = Int_table.create 256

let note t sigs =
  List.fold_left
    (fun fresh s ->
      match Int_table.find_opt t s with
      | Some c ->
        Int_table.replace t s (c + 1);
        fresh
      | None ->
        Int_table.add t s 1;
        fresh + 1)
    0 sigs

let distinct t = Int_table.length t

let hits t = Int_table.fold (fun _ c acc -> acc + c) t 0
