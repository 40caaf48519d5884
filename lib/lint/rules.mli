(** L2, monomorphic compare, as one Parsetree pass over a file under lib/. *)

val collect : file:string -> Ppxlib.structure -> Finding.t list
(** All findings, sorted by position. Pragmas are applied by {!Driver}. *)
