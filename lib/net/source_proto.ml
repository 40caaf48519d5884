type request =
  | Hello of int
  | Query_range of { seq : int; pos : int; len : int }
  | Stats
  | Shutdown

type response =
  | Bits of Dr_source.Bitarray.t
  | Stats_reply of { per_peer : int array; total : int; replays : int }
  | Bye
  | Err of string

let control_peer = -1
