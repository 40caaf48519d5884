(** dr_race's plumbing: read and parse sources, walk trees. *)

exception Error of string
(** IO or parse failure; carries [path: reason]. *)

val parse : path:string -> string -> Ppxlib.structure
(** Parse source into a Parsetree; raises {!Error} with the path on failure. *)

val read_file : string -> string
(** Whole-file read; raises {!Error} on IO failure. *)

val files_under : string list -> string list
(** Every [.ml] under the roots (skipping [_build], dotdirs, and fixture
    directories), globally sorted by byte order and deduplicated — the
    walk order is part of the report format, byte-identical across
    filesystems. *)
