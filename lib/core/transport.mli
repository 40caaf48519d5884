(** The transport abstraction of the protocol layer.

    The paper's protocols are defined purely in terms of point-to-point
    messages to other peers and [Query(i)] calls to the external source.
    {!S} captures exactly that interface — plus a private random stream,
    the [die] hook the Byzantine strategies use, and [await], the "wait
    until …" loop over messages whose body only updates local state — so a
    protocol core written against it is oblivious to {e where} it runs.
    [await]'s [on] and [ready] must not call the transport: the simulator
    runs them inside the delivering event. Like the model's peers, a core
    has no clock. Two implementations exist:

    - {!Sim_transport}: the deterministic discrete-event simulator
      ({!Dr_engine.Sim}), bit-exact with the pre-refactor behaviour;
    - [Dr_net.Net_transport]: a real runtime where each peer is an OS
      process exchanging length-prefixed frames over loopback/LAN sockets
      and querying a standalone data-source server ([dr_source_server]).

    {!CORE} packages a protocol as a first-class transport-generic
    constructor; {!Registry.entry.core} exposes one per protocol, and
    {!Exec.run_core} runs any of them on the simulator. *)

(** Message vocabulary of one protocol: payload type plus the accounting
    ([size_bits], against the model's [B] bound) and tracing ([tag]) views.
    It is the simulator's own signature, so a protocol's [Msg] module
    instantiates both runtimes. *)
module type MSG = Dr_engine.Sim.MESSAGE

(** The transport signature. Calls are only legal from inside a peer
    process executed by the owning runtime (the simulator event loop, or a
    peer OS process of the net runtime). *)
module type S = sig
  type msg

  val peer_count : unit -> int

  val send : int -> msg -> unit
  val broadcast : msg -> unit
  (** [broadcast m] sends [m] to every other peer, in ID order. *)

  val receive : unit -> int * msg
  (** Next delivered message as [(sender, message)]; blocks until one
      arrives. *)

  val await : ready:(unit -> bool) -> on:(int -> msg -> unit) -> unit
  (** [await ~ready ~on] means exactly
      [while not (ready ()) do let src, m = receive () in on src m done]:
      the paper's "wait until …" over messages that only update local
      state. [on] and [ready] must not call the transport (no send,
      query or [rng]); a loop whose body replies or queries stays on
      {!receive}. The simulator runs [on] and [ready] inside the
      delivering event, so a message costs no fiber switch; the socket
      transport runs the loop itself. *)

  val query : int -> bool
  (** The model's [Query(i)]: read one bit from the external source. Both
      transports implement it as the one-bit [query_range ~pos:i ~len:1],
      so it is charged, traced and crash-checked on the same path. *)

  val query_range : pos:int -> len:int -> Dr_source.Bitarray.t
  (** [query_range ~pos ~len] reads bits [pos .. pos+len-1] as one
      transport operation: one simulator effect, or one source round trip
      on sockets. This is the only way a transport reads the source. Q is
      still charged per bit — [len] queries in {!Dr_source.Data_source}
      accounting, each traced and crash-checked ([After_queries]) on its
      own — so a range read is indistinguishable
      in cost and outcome from the loop
      [Bitarray.init len (fun r -> query (pos + r))]. Use it for
      non-adaptive contiguous reads; a read whose next index depends on
      earlier answers ([Decision_tree.determine]) stays on {!query}.

      The result is read-only, on both runtimes. The simulator does not
      copy it: every read of one range, by any peer, gets the same packed
      bytes, so a write into it would change what the other readers hold.
      [Bitarray.copy] it before calling [Bitarray.set] or using it as a
      [Bitarray.blit] destination; [Exec.run_core] fails a run in which a
      read was written to ([Dr_source.Data_source.Read_mutated]). *)

  val rng : unit -> Dr_engine.Prng.t
  (** This peer's private random stream. Transports derive it from the
      instance seed by the same splitting discipline, so protocol coin flips
      agree across runtimes. *)

  val die : unit -> 'a
  (** The crashable hook: stop executing this peer immediately (voluntary
      halt of a Byzantine strategy, or transport-internal crash injection).
      Each transport raises its own control exception — protocol code must
      not catch it. *)
end

(** A transport-generic protocol: its message vocabulary and a process body
    that can be instantiated over any {!S}. Obtain values of this type from
    {!Registry.entry.core} — the constructor closes over the protocol's
    attack/segment parameters so [Process(T).run] needs only the instance
    and the peer id. *)
module type CORE = sig
  val name : string
  (** The protocol name reported in {!Problem.report} (the registry name). *)

  val supports : Problem.instance -> (unit, string) result
  (** Whether the protocol's resilience precondition holds for the
      instance (e.g. the committee protocol needs [2t + 1 <= k]). *)

  module Msg : MSG

  module Process (T : S with type msg = Msg.t) : sig
    val run : Problem.instance -> int -> Dr_source.Bitarray.t
    (** [run inst i] is the full per-peer protocol body (honest or
        Byzantine, per [inst]'s fault partition). Returns the peer's output
        array; faulty peers may instead [T.die]. *)
  end
end
