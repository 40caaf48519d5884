(** Multi-epoch oracle operation.

    A real oracle network publishes repeatedly: each epoch reads a fresh
    snapshot of the sources and pushes a value on-chain. The paper's static
    -source assumption holds {e within} one epoch (one Download instance);
    across epochs the data changes freely. This runner replays the full
    Section 4 flow (Download-based collection + asynchronous publication)
    once per epoch and accumulates the query bill against the classical
    baseline — the cumulative version of Theorem 4.2's saving. *)

type params = {
  base : Odc.params;  (** per-epoch parameters; [base.seed] seeds epoch 0 *)
  epochs : int;
}

type epoch_result = {
  collection_odd : bool;
  publication_odd : bool;
  cell_queries : int;  (** Download-based collection, total cells *)
  baseline_cell_queries : int;  (** what the classical step would have paid *)
}

type summary = {
  results : epoch_result list;
  all_ok : bool;  (** every epoch kept ODD through collection and publication *)
  total_queries : int;
  baseline_total : int;
  saving : float;  (** cumulative baseline/download query ratio *)
}

val run : ?protocol:Odc.protocol -> params -> (summary, string) result
(** Fails fast on invalid parameters (including the publication k > 3t
    precondition). *)
