(* The campaign's coverage map: signature -> hit count.

   Signatures come from a Dr_engine.Explore.probe (hashed
   phase × event-kind × round-bucket keys); the map only ever sees the
   distinct signatures of one run at a time (a probe's hits), so a "hit"
   counts runs that lit a signature, not raw events. Only counts are read
   out ([note]'s fresh count, [distinct], [hits]), so Hashtbl iteration
   order never leaks into the campaign's output. *)

type t = (int, int) Hashtbl.t

let create () = Hashtbl.create 256

let note t sigs =
  List.fold_left
    (fun fresh s ->
      match Hashtbl.find_opt t s with
      | Some c ->
        Hashtbl.replace t s (c + 1);
        fresh
      | None ->
        Hashtbl.add t s 1;
        fresh + 1)
    0 sigs

let distinct t = Hashtbl.length t

let hits t = Hashtbl.fold (fun _ c acc -> acc + c) t 0
