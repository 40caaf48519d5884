(** General retrieval problems over the DR model.

    The paper frames Download as the fundamental member of the class of
    retrieval problems — computing any [f(X)] — "since every retrieval
    problem can be solved by first performing download and then locally
    computing f". This module is that reduction as code: a retrieval
    problem is a pure function of the array, and [solve] runs any Download
    protocol and then evaluates it; because Download guarantees every
    nonfaulty peer holds exactly [X], all nonfaulty peers agree on [f(X)]
    with no extra communication. *)

type 'a problem = {
  name : string;
  compute : Dr_source.Bitarray.t -> 'a;
  equal : 'a -> 'a -> bool;
  describe : 'a -> string;
}

(** {2 The standard catalog} *)

val parity : bool problem
(** XOR of all bits. *)

val popcount : int problem
(** Number of set bits. *)

val find_first : bool -> int option problem
(** Index of the first bit with the given value. *)

val all_equal : bool problem
(** Is the array constant? *)

val longest_run : int problem
(** Length of the longest run of equal bits. *)

val slice : pos:int -> len:int -> Dr_source.Bitarray.t problem
(** A sub-vector (partial retrieval). *)

(** {2 Solving} *)

type 'a result = {
  download : Problem.report;  (** the underlying Download run *)
  value : 'a option;  (** [Some (f X)] — the value every nonfaulty peer
                          computes — iff the download succeeded *)
}

val solve :
  (module Transport.CORE) ->
  ?opts:Exec.opts ->
  Problem.instance ->
  'a problem ->
  'a result

val check : 'a problem -> Problem.instance -> 'a result -> bool
(** Does the computed value match [f] applied to the true input? (Vacuously
    false when the download failed.) *)
