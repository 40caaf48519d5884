(** The Stdlib names lib/, bin/ and bench/ may not use, under compiler
    alerts.

    Each of those directories compiles with [-open Dr_prelude], which
    includes these declarations and shadows Stdlib with {!Stdlib_bans},
    so [Stdlib.Random.int] and [open Stdlib] are caught too; the env
    stanza of the directory makes the alerts of its zone errors (see
    [prelude/dune] for the zone map and DESIGN.md "Static invariants" for
    why each name is banned). A module alias of a banned module is caught
    where it is made. One deliberate use is waived on the identifier
    alone: [(input_line [@alert "-l5"]) ic].

    Every value is Stdlib's own, except that {!Hashtbl_bans.create} has no
    [?random] argument. Each shadowed module is a compilation unit of its
    own, so the prelude allocates nothing when it is linked.

    The alerts:
    - [l1] ambient randomness ([Random]): an error in lib/, bin/ and bench/.
    - [l1_lib] the wall clock and representation hashing: an error in lib/.
    - [l3] the process's stdout and stderr: an error in lib/.
    - [l5] exiting and blocking reads: an error in lib/core and lib/engine.

    Alert [l2] sits on the polymorphic comparisons of the shadowed Stdlib
    ({!Stdlib_bans}): an error in lib/, which compares through the
    int-only {!Mono_compare}. Alert [metered] sits on
    {!Dr_source.Data_source}'s reads. *)

module Random = Stdlib.Random
[@@alert l1 "ambient Random breaks bit-exact replay; use the seeded Dr_engine.Prng"]

module Sys = Sys_bans
module Hashtbl = Hashtbl_bans
module Printf = Printf_bans
module Format = Format_bans

val print_string : string -> unit [@@alert l3 "stdout; take a formatter"]
val print_endline : string -> unit [@@alert l3 "stdout; take a formatter"]
val print_newline : unit -> unit [@@alert l3 "stdout; take a formatter"]
val print_char : char -> unit [@@alert l3 "stdout; take a formatter"]
val print_int : int -> unit [@@alert l3 "stdout; take a formatter"]
val print_float : float -> unit [@@alert l3 "stdout; take a formatter"]
val print_bytes : bytes -> unit [@@alert l3 "stdout; take a formatter"]
val prerr_string : string -> unit [@@alert l3 "stderr; take a formatter"]
val prerr_endline : string -> unit [@@alert l3 "stderr; take a formatter"]
val prerr_newline : unit -> unit [@@alert l3 "stderr; take a formatter"]
val prerr_char : char -> unit [@@alert l3 "stderr; take a formatter"]
val prerr_int : int -> unit [@@alert l3 "stderr; take a formatter"]
val prerr_float : float -> unit [@@alert l3 "stderr; take a formatter"]
val prerr_bytes : bytes -> unit [@@alert l3 "stderr; take a formatter"]
val stdout : out_channel [@@alert l3 "take a channel or formatter"]
val stderr : out_channel [@@alert l3 "take a channel or formatter"]
val exit : int -> 'a [@@alert l5 "tears down the simulator from inside a fiber; return or raise"]
val at_exit : (unit -> unit) -> unit [@@alert l5 "runs outside the event loop; return or raise"]
val input_line : in_channel -> string [@@alert l5 "a blocking read stalls every peer"]
val input_char : in_channel -> char [@@alert l5 "a blocking read stalls every peer"]
val input_byte : in_channel -> int [@@alert l5 "a blocking read stalls every peer"]
val read_line : unit -> string [@@alert l5 "a blocking read stalls every peer"]
val read_int : unit -> int [@@alert l5 "a blocking read stalls every peer"]
val read_int_opt : unit -> int option [@@alert l5 "a blocking read stalls every peer"]
val read_float : unit -> float [@@alert l5 "a blocking read stalls every peer"]
val read_float_opt : unit -> float option [@@alert l5 "a blocking read stalls every peer"]
