(** Decision trees over inconsistent bit strings (Protocol 3).

    Given several candidate versions of the same segment — some honest, some
    forged — the tree's internal nodes are {e separating indices}: positions
    where two candidates differ. Querying the source at each separating index
    along a root-to-leaf walk discards every candidate inconsistent with X;
    if the correct string is among the candidates, the walk ends at it.

    The number of internal nodes is (number of distinct candidates − 1), so
    resolving a segment costs at most that many queries — the accounting
    behind the randomized protocols' query bounds. *)

type t =
  | Leaf of Dr_source.Bitarray.t
  | Node of { index : int; zero : t; one : t }
      (** [index] is relative to the segment start; [zero]/[one] hold the
          candidates whose bit at [index] is 0/1. *)

val build : Dr_source.Bitarray.t list -> t
(** Build from a non-empty list of equal-length candidates (duplicates are
    merged). Raises [Invalid_argument] on an empty list or mixed lengths. *)

val internal_nodes : t -> int
(** (for tests) The tree's query budget: one query per internal node. *)

val determine :
  query:(int -> bool) -> offset:int -> t -> Dr_source.Bitarray.t * int
(** [determine ~query ~offset tree] walks the tree, querying
    [query (offset + index)] at every internal node, and returns the
    surviving candidate together with the number of queries spent.
    If the true segment string is a leaf, the result equals it. *)
