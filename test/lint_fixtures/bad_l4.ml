(* Fixture: L4 query confinement — a protocol touching the data source directly
   instead of the metered query function. Each line is one case. *)
let sneak src i = Dr_source.Data_source.query src ~peer:0 i
let sneak_fn src = Dr_source.Data_source.query_fn src
let sneak_range src = Dr_source.Data_source.read_range src ~peer:0 ~pos:0 ~len:8
