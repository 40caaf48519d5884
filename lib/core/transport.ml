(* The transport abstraction: exactly the primitives the protocol cores use,
   lifted out of Dr_engine.Sim so that the same protocol code can run either
   inside the deterministic simulator or as a real OS process over sockets
   (lib/net). See DESIGN.md "Transport layer". *)

module type MSG = Dr_engine.Sim.MESSAGE

module type S = sig
  type msg

  val peer_count : unit -> int
  val send : int -> msg -> unit
  val broadcast : msg -> unit
  val receive : unit -> int * msg
  val await : ready:(unit -> bool) -> on:(int -> msg -> unit) -> unit
  val query : int -> bool
  val query_range : pos:int -> len:int -> Dr_source.Bitarray.t
  val rng : unit -> Dr_engine.Prng.t
  val die : unit -> 'a
end

module type CORE = sig
  val name : string

  module Msg : MSG

  module Process (T : S with type msg = Msg.t) : sig
    val run : Problem.instance -> int -> Dr_source.Bitarray.t
  end
end
