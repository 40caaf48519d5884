(** Download for word-valued arrays — the paper's "extension to numbers".

    Section 4 notes that the binary Download protocols "can be extended to
    numbers via a relatively simple extension": fix a word width w, view an
    array of d numbers as a (d·w)-bit array, run any bit Download protocol,
    and decode. This module is that extension, with cost accounting in
    {e word} units (⌈bit queries / w⌉), which is what the oracle-level
    comparisons of Theorems 4.1/4.2 charge. *)

type instance = {
  k : int;
  values : int array;  (** the source's d words *)
  width : int;  (** bits per word, 1..62 *)
  fault : Dr_adversary.Fault.t;
  model : Dr_core.Problem.fault_model;
  seed : int64;
}

val make :
  ?seed:int64 ->
  ?width:int ->
  ?model:Dr_core.Problem.fault_model ->
  k:int ->
  values:int array ->
  Dr_adversary.Fault.t ->
  instance
(** Defaults: [width = 32], [seed = 1L]. Raises [Invalid_argument] when a
    value does not fit the width. *)

type report = {
  ok : bool;  (** every nonfaulty peer decoded exactly [values] *)
  words_max : int;  (** per-peer word-query maximum (Q/w, rounded up) *)
  decoded : int array option;
      (** when [ok], the encoded input X decoded: [ok] means every nonfaulty
          peer output X bit for bit (the check in [Dr_core.Exec]), so these
          are exactly the words each honest peer holds; [None] otherwise *)
  bits : Dr_core.Problem.report;  (** the underlying bit-level report *)
}

val run :
  (module Dr_core.Transport.CORE) ->
  ?opts:Dr_core.Exec.opts ->
  instance ->
  report
