(** {!Transport.S} over the deterministic simulator.

    [Make (Msg)] instantiates one simulator ({!Dr_engine.Sim.Make}) and
    exposes its process-side API under the transport names ([query_range]
    returns the bytes the source answered with as a
    {!Dr_source.Bitarray.t}, shared, not copied: read-only, as
    {!Transport.S.query_range} says). [run_sim] drives an execution: the process
    passed to it must perform its transport calls through {e this}
    instance (each [Make] application owns its own effect constructors). *)

module Make (M : Transport.MSG) : sig
  include Transport.S with type msg = M.t

  val run_sim : Dr_engine.Sim.config -> (int -> 'r) -> 'r Dr_engine.Sim.outcome
  (** {!Dr_engine.Sim.Make.run} for this instance. *)
end
