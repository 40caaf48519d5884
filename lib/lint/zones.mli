(** The [dr-race.zones] file, the only place a zone is declared: one line
    per module-level mutable value that is [init-only], written during
    setup and read-only afterward. *)

type decl = {
  d_key : string;  (** "Bitarray.popcount_byte", "Wire.Crc32.table" *)
  d_reason : string;
  d_file : string;  (** the zones file *)
  d_line : int;
}

exception Parse_error of string
(** Malformed zones file; carries [path:line: reason]. *)

val parse_file : path:string -> string -> decl list
val find : decl list -> key:string -> decl option
