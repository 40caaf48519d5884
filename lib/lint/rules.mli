(** The five static rules (L1–L5) as one Parsetree pass. *)

type ctx = {
  in_lib : bool;  (** under lib/: L2 and L3 apply, and L1 in full *)
  in_core_engine : bool;  (** under lib/core or lib/engine: L5 applies *)
  in_net : bool;  (** lib/net: the real socket runtime, exempt from the L1 Unix ban *)
  allow_random : bool;  (** lib/engine/prng.ml: the one seeded PRNG *)
  allow_query : bool;  (** Exec/Problem/Dr_source/Source_server: the Q-metering boundary *)
}

val ctx_of_path : string -> ctx
(** Derive the rule context from a path ("lib/stats/table.ml", absolute
    paths and [..] segments included). *)

val collect : ctx:ctx -> file:string -> Ppxlib.structure -> Finding.t list
(** All findings, sorted by position. Pragmas are applied by {!Driver}. *)
