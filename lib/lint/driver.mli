(** dr_race's plumbing: read files, walk trees. *)

exception Error of string
(** IO or load failure; carries [path: reason]. *)

val read_file : string -> string

val files_under : ?suffix:string -> string list -> string list
(** Every file ending in [suffix] (default [".ml"]) under the roots, but not
    under [_build], fixture or non-object dot-directories; sorted, deduped. *)
