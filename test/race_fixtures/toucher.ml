(* Planted R2: another unit's init-only cell written after initialization,
   through its table module's replace. *)
let poke i = Store.Int_table.replace Store.cells i ()
