(** {!Transport.S} over the deterministic simulator.

    [Make (Msg)] instantiates one simulator ({!Dr_engine.Sim.Make}) and
    exposes its process-side API under the transport names ([query_range]
    reads the range into a fresh buffer that becomes the returned
    {!Dr_source.Bitarray.t}). [run_sim] drives an execution: the process
    passed to it must perform its transport calls through {e this}
    instance (each [Make] application owns its own effect constructors). *)

module Make (M : Transport.MSG) : sig
  include Transport.S with type msg = M.t

  val run_sim : Dr_engine.Sim.config -> (int -> 'r) -> 'r Dr_engine.Sim.outcome
  (** {!Dr_engine.Sim.Make.run} for this instance. *)
end
