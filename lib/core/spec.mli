(** The paper's bounds as code.

    One record per protocol: resilience precondition, query/time/message
    bounds as evaluable functions of the instance parameters, and provenance
    (which theorem). The experiment harness prints these next to measured
    values, and the tests check that measured Q never exceeds the bound
    (with the constants the analysis allows). *)

type bounds = {
  protocol : string;  (** the protocol name ({!Transport.CORE.name}) *)
  theorem : string;  (** provenance in the paper *)
  resilience : k:int -> t:int -> bool;  (** the regime where the bound holds *)
  q_bound : k:int -> n:int -> t:int -> b:int -> float;
      (** upper bound on Q, with explicit constants; [b] is the message
          bound, which sets the committee protocol's block granularity *)
  randomized : bool;  (** bound holds w.h.p. rather than always *)
}

val naive : bounds
val balanced : bounds
val crash_single : bounds
val crash_general : bounds
val committee : bounds
val byz_2cycle : bounds
val byz_multicycle : bounds

(* Lookup by name lives in {!Registry} ([spec_of]), next to the protocol
   modules the bounds describe. *)

val within : bounds -> k:int -> n:int -> t:int -> b:int -> measured:int -> bool
(** Does a measured Q respect the bound (given the regime holds)? *)
