(** The R1-R2 rules (see DESIGN.md "Init-only state"): census the tree's
    module-level mutable values, check them and every write to them
    against the zones file, and emit the machine-readable census. *)

type rule = R1 | R2

val rule_name : rule -> string

type finding = { file : string; line : int; col : int; rule : rule; msg : string }

type analysis = {
  units_scanned : int;
  items : Inventory.item list;
  decls : Zones.decl list;
  findings : finding list;  (** sorted by file, line, column and rule *)
}

val init_like : string option -> bool
(** (for tests) Is a write in this module-level binding ([None]: module init) an init? *)

val analyze : ?zones_path:string -> string list -> analysis
(** The analysis of the units whose .cmt files are under [roots]. Raises
    {!Driver.Error} on an unreadable unit or a malformed zones file. *)

val pp_report : Format.formatter -> analysis -> unit
(** Findings as [file:line:col [RULE] message] lines, then a summary. *)

val inventory_json : analysis -> string
(** The census as deterministic [dr-race/3] JSON with no source positions. *)
