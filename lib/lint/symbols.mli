(** Per-compilation-unit symbol information and name-based longident
    resolution — the lightweight (typer-free) substrate the whole-program
    race analysis runs on. *)

type unit_info = {
  path : string;  (** as given on the command line *)
  name : string;  (** "Metrics" for lib/engine/metrics.ml *)
  str : Ppxlib.structure;
  intf : Ppxlib.signature option;  (** the parsed .mli, when one exists *)
  aliases : (string * string list) list;
      (** top-level [module M = Some.Path] aliases, expanded during resolution *)
  submodules : string list;  (** top-level [module M = struct .. end] names *)
}

val load :
  parse:(path:string -> string -> Ppxlib.structure) ->
  read:(string -> string) ->
  string ->
  unit_info
(** Parse one unit (and its [.mli] sibling if present). [parse]/[read] are
    passed in so this module stays independent of {!Driver}. *)

type table

exception Clash of string
(** Two units share a name: name-based resolution would be ambiguous. *)

val table : unit_info list -> table

val resolve : table -> self:unit_info -> string list -> (string * string list) option
(** Resolve flattened longident parts to [(unit name, path inside unit)].
    Skips [Stdlib] and [Dr_*] library wrappers, expands [self]'s module
    aliases one step, maps bare idents to [self]'s own top level, and
    recognizes [self]'s nested modules. [None] for idents that belong to no
    known unit (locals, stdlib, external libraries). *)
