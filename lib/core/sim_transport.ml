(* The simulator transport: a thin renaming of Dr_engine.Sim.Make to the
   Transport.S vocabulary. Every function but [query_range] is a direct
   alias; [query_range] wraps the bytes the simulator's source returned in
   a Bitarray without copying them, so the honest readers of one segment
   share one packed copy of it (the default source keeps one per range).
   Protocol cores instantiated over it execute the exact same effect
   sequence as the pre-transport code — the golden determinism tests pin
   this bit-exactly. *)

module Make (M : Transport.MSG) = struct
  module S = Dr_engine.Sim.Make (M)

  type msg = M.t

  let peer_count = S.peer_count
  let send = S.send
  let broadcast = S.broadcast
  let receive = S.receive
  let await = S.await
  let query = S.query

  let query_range ~pos ~len = Dr_source.Bitarray.of_packed len (S.query_range ~pos ~len)

  let rng = S.rng
  let die = S.die

  let run_sim = S.run
end
