(* An init-only cell (fixtures.zones) whose table type a Hashtbl.Make
   instance makes; toucher.ml writes it from another unit. *)
module Int_table = Hashtbl.Make (Int)

let cells : unit Int_table.t = Int_table.create 8
