(** [(* dr-lint: allow L2 — reason *)] suppression comments, shared with
    dr_race's [(* dr-race: allow R1 — reason *)] and
    [(* dr-race: zone init-only — reason *)] forms. *)

type t = {
  line : int;
  rule : Finding.rule;
  reason : string;
  at_eof : bool;  (** on the last line of the file: no "line below" exists *)
}

val race_marker : string
(** ["dr-race:"] — the marker dr_race pragmas open with. *)

val scan : ?marker:string -> string -> t list
(** All allow pragmas in a source file, in line order. [marker] defaults to
    ["dr-lint:"]. *)

val directives : marker:string -> verb:string -> string -> (int * string) list
(** All [(line, payload)] directive comments of the form
    [(* <marker> <verb> <payload> *)], payload with separator dashes and the
    comment close stripped — the generic form zone pragmas build on. *)

val covers : t -> Finding.t -> bool
(** Does this pragma suppress this finding? True when the rules match and
    the finding sits on the pragma's line or the line directly below it
    (never past the end of the file). *)
