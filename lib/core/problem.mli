(** The Download problem: instances and reports.

    An instance fixes everything the adversary and the protocol need: the
    input array, the number of peers, the faulty set, the message-size bound
    and the random seed. A report is what running a protocol on an instance
    produces — the correctness verdict plus the paper's three complexity
    measures Q, T, M. Both runtimes build it with {!Exec.finish}. *)

type fault_model = Crash | Byzantine

type instance = {
  k : int;  (** number of peers *)
  x : Dr_source.Bitarray.t;  (** the input array X (n = its length) *)
  fault : Dr_adversary.Fault.t;
  model : fault_model;
  b : int;  (** message-size bound B, in bits *)
  seed : int64;
}

val make :
  ?seed:int64 ->
  ?b:int ->
  ?model:fault_model ->
  k:int ->
  x:Dr_source.Bitarray.t ->
  Dr_adversary.Fault.t ->
  instance
(** Defaults: [seed = 1L], [b = 64·⌈log2 (n+k)⌉] (a few machine words),
    [model] = [Crash] when no peer is faulty or per the caller. Raises
    [Invalid_argument] on inconsistent sizes. *)

val random_instance :
  ?seed:int64 ->
  ?b:int ->
  ?model:fault_model ->
  k:int ->
  n:int ->
  t:int ->
  unit ->
  instance
(** Uniform random input of [n] bits and [t] faulty peers chosen by the
    spread pattern; the common constructor for tests and benches. *)

val n : instance -> int
val t : instance -> int
val beta : instance -> float
val gamma : instance -> float
val honest : instance -> int -> bool

type report = {
  protocol : string;
  ok : bool;  (** every nonfaulty peer terminated with output = X *)
  wrong : int list;  (** nonfaulty peers with a wrong or missing output *)
  q_max : int;  (** Q: max bits queried by a nonfaulty peer *)
  q_mean : float;  (** mean over nonfaulty peers *)
  q_total : int;  (** total over nonfaulty peers *)
  msgs : int;  (** M: messages sent by nonfaulty peers *)
  bits_sent : int;
  max_msg_bits : int;  (** largest message actually sent (≤ B expected) *)
  time : float;
      (** T: on the simulator the instant the last nonfaulty peer
          terminated, in max-latency units; on sockets the run's wall-clock
          seconds *)
  status : Dr_engine.Sim.status;
}

val pp_report : Format.formatter -> report -> unit
