(** Stdlib.Format, with the process's formatters under alert l3. *)

include module type of struct
  include Stdlib.Format
end

val printf : ('a, formatter, unit) format -> 'a [@@alert l3 "stdout; take a formatter"]
val eprintf : ('a, formatter, unit) format -> 'a [@@alert l3 "stderr; take a formatter"]
val print_string : string -> unit [@@alert l3 "stdout; take a formatter"]
val print_newline : unit -> unit [@@alert l3 "stdout; take a formatter"]
val print_flush : unit -> unit [@@alert l3 "stdout; take a formatter"]
val open_box : int -> unit [@@alert l3 "stdout; take a formatter"]
val close_box : unit -> unit [@@alert l3 "stdout; take a formatter"]
val std_formatter : formatter [@@alert l3 "stdout; take a formatter"]
val err_formatter : formatter [@@alert l3 "stderr; take a formatter"]
