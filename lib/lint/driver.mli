(** dr_race's plumbing: parse sources, apply pragmas, walk trees, print
    reports. *)

exception Error of string
(** IO or parse failure; carries [path: reason]. *)

type file_report = {
  path : string;
  findings : Finding.t list;  (** after pragma suppression, sorted *)
  suppressed : (Finding.t * Pragma.t) list;
  unused_pragmas : Pragma.t list;
}

type report = {
  files : file_report list;  (** only files with findings/pragma activity *)
  files_scanned : int;
  total_findings : int;
  total_suppressed : int;
}

val parse : path:string -> string -> Ppxlib.structure
(** Parse source into a Parsetree; raises {!Error} with the path on failure. *)

val read_file : string -> string
(** Whole-file read; raises {!Error} on IO failure. *)

val apply_pragmas : path:string -> pragmas:Pragma.t list -> Finding.t list -> file_report
(** Partition raw findings into kept/suppressed under the given pragmas,
    reporting pragmas that suppressed nothing. *)

val files_under : string list -> string list
(** Every [.ml] under the roots (skipping [_build], dotdirs, and fixture
    directories), globally sorted by byte order and deduplicated — the
    walk order is part of the report format, byte-identical across
    filesystems. *)

val report_of_file_reports : file_report list -> report
(** Assemble per-file reports into a report, sorted by path. *)

val pp_report : Format.formatter -> report -> unit
(** Findings as [file:line:col [RULE] message] lines plus a [dr_race:]
    summary line. *)

val pp_report_json : Format.formatter -> report -> unit
(** Findings and unused pragmas as dr-lint/1 JSON lines, no summary. *)

val clean : report -> bool
(** No findings and no unused pragmas. *)
