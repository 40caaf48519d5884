(** The sanctioned wrappers for engine-shared mutable state. Cells declared
    [engine-shared] in dr-race.zones may only be touched through this
    module (dr_race rule R2); everything here is Atomic- or Mutex-guarded
    and safe to share across domains.

    (for tests) No engine-shared cell exists yet, so only the test suite
    calls these wrappers; the module stays because R2 names it as the one
    sanctioned access path. *)

module Counter : sig
  type t

  val make : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val reset : t -> unit
end

module Cell : sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val update : 'a t -> ('a -> 'a) -> unit
  (** Lock-free read-modify-write; [f] may be retried and must be pure. *)
end

module Guarded : sig
  type 'a t

  val make : 'a -> 'a t

  val with_lock : 'a t -> ('a -> 'b) -> 'b
  (** Run [f] on the value with the mutex held. *)

  val set : 'a t -> 'a -> unit
end
