(** Lint findings and the rule taxonomy (see DESIGN.md "Static invariants"
    for L1-L5 and "Domain-safety zones" for R1-R3). *)

type rule = L1 | L2 | L3 | L4 | L5 | R1 | R2 | R3

val rule_name : rule -> string
val rule_of_string : string -> rule option
val rule_equal : rule -> rule -> bool

val rule_doc : rule -> string
(** One-line statement of the invariant the rule machine-checks. *)

val race_rules : rule list
(** R1-R3: the whole-program dr_race rules. *)

type t = { file : string; line : int; col : int; rule : rule; msg : string }

val make : file:string -> loc:Ppxlib.Location.t -> rule -> string -> t

val at : file:string -> line:int -> col:int -> rule -> string -> t
(** Build a finding from an explicit position — used by the whole-program
    race rules whose sites aren't always inside a parsed AST (e.g. stale
    declarations in the zones file itself). *)

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** [file:line:col [RULE] message] — the CLI output format. *)

val json_schema : string
(** ["dr-lint/1"] — the schema tag stamped on every JSON finding line. *)

val json_escape : string -> string
(** JSON string-body escaping shared by the machine-readable emitters. *)

val to_json : t -> string
(** One self-contained JSON object (single line, schema [dr-lint/1]). *)
