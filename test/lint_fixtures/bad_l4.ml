(* Fixture: L4 query-confinement violation — a protocol touching the data
   source directly instead of the metered query function. Never compiled. *)
let sneak src i = Data_source.query src i
let sneak_fn src = Dr_source.Data_source.query_fn src
let sneak_range src buf = Data_source.read_range src ~peer:0 ~pos:0 ~len:8 buf
