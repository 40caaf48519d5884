(** Fault-free balanced Download: peer [i] queries the [i]-th segment of X
    and broadcasts it; everyone assembles the full array.

    The ideal point of the design space — Q = ⌈n/k⌉, M = O(k²·n/(kB)),
    T = O(n/(kB)) — but a single crash deadlocks it and a single Byzantine
    peer corrupts every honest output. It exists as the β = 0 baseline and
    as the failure demo motivating everything else. *)

val name : string  (** The registry name, [Spec.bounds.protocol]. *)

val core : unit -> (module Transport.CORE)
(** The transport-generic protocol core (see {!Transport.CORE}). *)
