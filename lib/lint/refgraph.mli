(** The cross-module reference graph: which units read/write each
    inventoried module-level cell, and which units reference which other
    units — the evidence base for the R2 cross-zone checks. *)

type access_kind = Read | Write

type access = {
  a_key : string;  (** {!Inventory.key} of the cell *)
  a_unit : string;  (** accessing unit *)
  a_path : string;
  a_line : int;
  a_col : int;
  a_kind : access_kind;
  a_fn : string option;  (** enclosing module-level binding; [None] = toplevel eval *)
  a_in_fun : bool;  (** under a lambda: runs post-init, not at module init *)
}

type uref = {
  r_unit : string;  (** referenced unit *)
  r_ident : string;  (** first ident inside it, [""] for a bare module reference *)
  r_path : string;
  r_line : int;
  r_col : int;
}

val build :
  Symbols.table ->
  Symbols.unit_info list ->
  Inventory.item list ->
  access list * uref list
(** All cell accesses and cross-unit references, in deterministic
    (unit-order, then source-order) sequence. *)
