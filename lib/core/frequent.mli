(** ρ-frequent string bookkeeping for the randomized protocols.

    Collects the [⟨segment, string⟩] reports received from other peers and
    answers "which strings for segment [j] were reported by at least ρ
    distinct peers". Each peer's {e first} report (per cycle) is the only one
    counted — the paper's accounting "each peer sends no more than one string
    overall" is enforced here, so a Byzantine flooder cannot inflate R_j.

    Each segment keeps a flat tally: its leader, a string with the largest
    count, and that count in two fields; its other distinct strings and
    their counts in two arrays that grow by doubling. The leader changes
    only when another string's count strictly exceeds the leader's.

    Cost model, for the d distinct strings of a segment. A report equal to
    the leader, physically or byte for byte, costs one comparison and one
    increment and allocates nothing. Any other report costs O(d) equality
    tests (a linear scan of the other strings), plus an amortised O(1)
    append when the string is new. Since each peer counts once, d is at
    most the number of peers that reported the segment: a flood of
    distinct forgeries makes d at most t + 1, and the honest string costs
    O(1) once it leads. [frequent] costs O(d) plus a sort of the strings it
    returns. *)

type t

val create : unit -> t

val add : t -> seg:int -> peer:int -> Dr_source.Bitarray.t -> bool
(** Record a report. Returns [false] (and ignores the report) if this peer
    already reported any segment into this store. Peer ids are [>= 0] (the
    store keeps one byte per id up to the largest seen); a negative [peer]
    or [seg] raises [Invalid_argument]. *)

val reporters : t -> int
(** (for tests) Number of distinct peers that have reported. *)

val strings_for : t -> seg:int -> (Dr_source.Bitarray.t * int) list
(** (for tests) Distinct strings with their reporter counts, in decreasing
    {!Dr_source.Bitarray.compare} order. Their counts sum to R_j, the
    reports counted for segment [j]. *)

val frequent : t -> seg:int -> rho:int -> Dr_source.Bitarray.t list
(** Strings reported by ≥ rho distinct peers, in decreasing
    {!Dr_source.Bitarray.compare} order: a decision tree's candidates. *)

val has_frequent : t -> seg:int -> rho:int -> bool
(** [frequent t ~seg ~rho <> []], in O(1) and without allocating: it reads
    the leader's count. *)

val covered : t -> segments:int -> rho:int -> bool
(** Does every segment in [0 .. segments-1] have a ρ-frequent string? This is
    the paper's asynchronous waiting condition for entering cycle 2. Allocation-free. *)
