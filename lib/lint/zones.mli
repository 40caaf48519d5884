(** Domain-safety zone declarations: the [dr-race.zones] file, the only
    place a zone is declared. *)

type zone =
  | Engine_shared  (** accessed only via the Domain_safe wrapper *)
  | Per_domain of string option  (** one instance per domain; optional owner subtree *)
  | Init_only  (** written during setup, read-only afterward (values only) *)

val zone_name : zone -> string

type decl = {
  d_key : string;  (** "Metrics.t", "Bitarray.popcount_byte" *)
  d_sort : Inventory.sort;
  d_zone : zone;
  d_reason : string;
  d_file : string;  (** the zones file *)
  d_line : int;
}

exception Parse_error of string
(** Malformed zones file; carries [path:line: reason]. *)

val parse_file : path:string -> string -> decl list
val find : decl list -> sort:Inventory.sort -> key:string -> decl option
