(** dr_race's findings and rules (see DESIGN.md "Domain-safety zones"). *)

type rule = R1 | R2

val rule_name : rule -> string
val rule_of_string : string -> rule option
val rule_equal : rule -> rule -> bool

val rule_doc : rule -> string
(** One-line statement of the invariant the rule machine-checks. *)

val race_rules : rule list
(** R1-R2, in catalogue order. *)

type t = { file : string; line : int; col : int; rule : rule; msg : string }

val at : file:string -> line:int -> col:int -> rule -> string -> t
(** A finding at an explicit position; a site need not be inside a parsed
    AST (e.g. a stale declaration in the zones file itself). *)

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** [file:line:col [RULE] message] — the CLI output format. *)

val json_schema : string
(** ["dr-lint/1"] — the schema tag stamped on every JSON finding line. *)

val json_escape : string -> string
(** JSON string-body escaping shared by the machine-readable emitters. *)

val to_json : t -> string
(** One self-contained JSON object (single line, schema [dr-lint/1]). *)
