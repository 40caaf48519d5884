(** Fixed-width ASCII tables for the experiment harness.

    The bench binary regenerates the paper's Table 1 and the per-theorem
    experiments as plain-text tables; this module does the layout. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Row cells are padded/aligned per column. A row shorter than the header
    is right-padded with empty cells; a longer one raises. *)

val print : ?ppf:Format.formatter -> t -> unit
(** Render the header, a rule of dashes and the rows to [ppf] and flush;
    defaults to [Format.std_formatter] so the CLIs and bench binaries keep
    their one-line call sites. *)

val cell_int : int -> string
val cell_bool : bool -> string
