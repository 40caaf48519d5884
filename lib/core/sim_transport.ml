(* The simulator transport: a thin renaming of Dr_engine.Sim.Make to the
   Transport.S vocabulary. Every function but [query_range] is a direct
   alias; [query_range] has the simulator read straight into the returned
   Bitarray's bytes, so a range read copies its bits once.
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

  let query_range ~pos ~len =
    Dr_source.Bitarray.init_bytes len (S.query_range ~pos ~len)

  let rng = S.rng
  let die = S.die

  let run_sim = S.run
end
