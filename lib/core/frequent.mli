(** ρ-frequent string bookkeeping for the randomized protocols.

    Collects the [⟨segment, string⟩] reports received from other peers and
    answers "which strings for segment [j] were reported by at least ρ
    distinct peers". Each peer's {e first} report (per cycle) is the only one
    counted — the paper's accounting "each peer sends no more than one string
    overall" is enforced here, so a Byzantine flooder cannot inflate R_j.

    Cost model. Each segment remembers its leader, a string with the largest
    count, and the map cell that holds that count. A report equal to the
    leader, physically or byte for byte, costs O(1): one comparison and one
    increment, no map lookup. Any other report costs O(log d) for the d
    distinct strings of its segment, so a flood of distinct forgeries costs
    no more than before, and the honest string costs O(1) once it leads. *)

type t

val create : unit -> t

val add : t -> seg:int -> peer:int -> Dr_source.Bitarray.t -> bool
(** Record a report. Returns [false] (and ignores the report) if this peer
    already reported any segment into this store. Peer ids are [>= 0] (the
    store keeps one byte per id up to the largest seen); a negative [peer]
    or [seg] raises [Invalid_argument]. *)

val reporters : t -> int
(** (for tests) Number of distinct peers that have reported. *)

val total_for : t -> seg:int -> int
(** (for tests) R_j: reports received for segment [j], including
    duplicates. *)

val strings_for : t -> seg:int -> (Dr_source.Bitarray.t * int) list
(** (for tests) Distinct strings with their reporter counts, in decreasing
    {!Dr_source.Bitarray.compare} order. *)

val frequent : t -> seg:int -> rho:int -> Dr_source.Bitarray.t list
(** Strings reported by ≥ rho distinct peers, in decreasing
    {!Dr_source.Bitarray.compare} order: a decision tree's candidates. *)

val has_frequent : t -> seg:int -> rho:int -> bool
(** [frequent t ~seg ~rho <> []], in O(1) and without allocating: it reads
    the leader's count. *)

val covered : t -> segments:int -> rho:int -> bool
(** Does every segment in [0 .. segments-1] have a ρ-frequent string? This is
    the paper's asynchronous waiting condition for entering cycle 2. Allocation-free. *)
