(** The Oracle Data Collection step (Section 4), both ways.

    [baseline] is the classical ODC process of OCR/DORA-style oracles: every
    one of the k oracle nodes independently queries all d cells of 2·ts+1
    sources and takes a per-cell median. Correct (each node's median is in
    the honest range) but expensive: k·(2·ts+1)·d cell queries in total.

    [download_based] is the paper's proposal: the k nodes pick the same
    2·ts+1 sources, run one Download instance per source ({!Word_download}
    at [Feed.value_bits] bits per cell) so that {e every} honest node
    learns each source's full array at ~1/(γk) of the per-node cost, then
    take the same per-cell median. Total cost ≈ (2·ts+1)·d/γ cell
    queries — a ≈ γk-fold saving (Theorem 4.2), measured here.

    Both variants publish through the mock chain: every node submits its
    median array, Byzantine nodes submit garbage, and the contract takes a
    cell-wise median across nodes (sound while the Byzantine nodes are a
    minority of the oracle network). The report records whether the
    published array satisfies the ODD honest-range predicate. *)

type params = {
  peers : int;  (** k: oracle-network nodes *)
  peer_faults : int;  (** Byzantine oracle nodes (< peers/2) *)
  sources : int;  (** m: available data sources *)
  source_faults : int;  (** ts: Byzantine sources; 2·ts+1 <= m *)
  cells : int;  (** d: cells per source *)
  seed : int64;
}

val validate : params -> (unit, string) result

type report = {
  method_name : string;
  odd_ok : bool;  (** published array within the honest range, every cell *)
  honest_reports_ok : int;  (** honest nodes whose own median satisfies ODD *)
  cell_queries_total : int;  (** across all honest nodes, in cell units *)
  cell_queries_max_node : int;
  download_ok : bool;  (** download-based only: every per-source Download
                           of an honest source was exact on honest nodes *)
  published : int array;
}

val baseline : params -> report

type protocol = [ `Committee | `Two_cycle | `Naive ]

val download_based : ?protocol:protocol -> params -> report
(** [protocol] is the Download protocol run per source among the oracle
    nodes (default [`Committee], the deterministic choice). Bit queries are
    converted to cell units ([Feed.value_bits] bits per cell). *)

val full_flow :
  ?protocol:protocol -> params -> (report * Pipeline.outcome, string) result
(** The whole Section 4 pipeline end to end: Download-based collection
    (step 1), then the simulated asynchronous submission round and on-chain
    median (steps 2–3, see {!Pipeline}). Requires the publication
    precondition [peers > 3·peer_faults] on top of {!validate}. *)
