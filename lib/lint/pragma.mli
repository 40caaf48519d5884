(** dr_race's directive comments: the [(* dr-race: allow R1 — reason *)]
    suppression and the [(* dr-race: zone init-only — reason *)] inline
    zone forms. *)

type t = {
  line : int;
  rule : Finding.rule;
  reason : string;
  at_eof : bool;  (** on the last line of the file: no "line below" exists *)
}

val scan : string -> t list
(** All allow pragmas in a source file, in line order. *)

val directives : verb:string -> string -> (int * string) list
(** All [(line, payload)] directive comments of the form
    [(* dr-race: <verb> <payload> *)], payload with separator dashes and
    the comment close stripped — the generic form zone pragmas build on. *)

val covers : t -> Finding.t -> bool
(** Does this pragma suppress this finding? True when the rules match and
    the finding sits on the pragma's line or the line directly below it
    (never past the end of the file). *)
