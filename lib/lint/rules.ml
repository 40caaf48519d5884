(* The five rules, as a single pass over the Parsetree.

   Everything here is purely syntactic: no typing information is available,
   so each rule is calibrated to be precise on the shapes this codebase
   actually uses (see DESIGN.md "Static invariants"). The escape hatch for a
   deliberate exception is a [(* dr-lint: allow Lx — reason *)] pragma. *)

open Ppxlib

type ctx = {
  in_lib : bool;  (** under lib/: L2 and L3 apply, and L1 in full *)
  in_core_engine : bool;  (** under lib/core or lib/engine: L5 applies *)
  in_net : bool;  (** lib/net: the real socket runtime, exempt from the L1 Unix ban *)
  allow_random : bool;  (** lib/engine/prng.ml: the one seeded PRNG *)
  allow_query : bool;  (** Exec/Problem/Dr_source/Source_server: the Q-metering boundary *)
}

let ctx_of_path path =
  let segs =
    List.filter
      (fun s -> String.length s > 0 && not (String.equal s "."))
      (String.split_on_char '/' path)
  in
  let base = Filename.basename path in
  let mem s = List.exists (String.equal s) segs in
  let in_lib = mem "lib" in
  let in_core_engine = in_lib && (mem "core" || mem "engine") in
  let in_net = in_lib && mem "net" in
  let allow_random = in_lib && mem "engine" && String.equal base "prng.ml" in
  let allow_query =
    (in_lib && mem "source")
    || (in_lib && mem "core"
       && (String.equal base "exec.ml" || String.equal base "problem.ml"))
    || (in_net && String.equal base "source_server.ml")
  in
  { in_lib; in_core_engine; in_net; allow_random; allow_query }

(* ------------------------------------------------------------------ *)
(* Identifier shapes                                                  *)
(* ------------------------------------------------------------------ *)

let lident_parts txt = try Longident.flatten_exn txt with _ -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let part_eq = List.equal String.equal

let poly_binops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]
let is_poly_binop s = List.exists (String.equal s) poly_binops
let is_minmax s = String.equal s "min" || String.equal s "max"

let l3_prints =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "print_bytes"; "prerr_string"; "prerr_endline"; "prerr_newline";
    "prerr_char"; "prerr_int"; "prerr_float"; "prerr_bytes";
  ]

let l5_blocking = [ "read_line"; "read_int"; "read_int_opt"; "read_float"; "read_float_opt" ]
let l5_unix_blocking = [ "sleep"; "sleepf"; "select"; "wait"; "waitpid"; "read"; "write" ]

(* Is this identifier (already Stdlib-stripped) banned here, and why? *)
let check_ident ctx parts : (Finding.rule * string) option =
  match parts with
  | "Random" :: _ when not ctx.allow_random ->
    Some
      ( Finding.L1,
        "ambient Random.* breaks bit-exact replay; use the seeded Dr_engine.Prng \
         (create/split) instead" )
  | [ "Sys"; "time" ] when ctx.in_lib ->
    Some (Finding.L1, "Sys.time reads the wall clock; simulated time must come from the event loop")
  | "Unix" :: rest when ctx.in_core_engine && List.exists (fun b -> part_eq rest [ b ]) l5_unix_blocking
    ->
    Some
      ( Finding.L5,
        "blocking Unix call inside fiber code stalls every simulated peer; fibers must stay \
         compute-only" )
  | "Unix" :: _ when ctx.in_lib && not ctx.in_net ->
    Some
      ( Finding.L1,
        "Unix.* (wall clock, processes, IO) is nondeterministic under replay; keep real-world \
         effects in bin/, bench/ or lib/net (the socket runtime)" )
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] when ctx.in_lib ->
    Some
      ( Finding.L1,
        "Hashtbl.hash is representation-sensitive and truncates deep values; derive keys \
         explicitly" )
  | [ "Hashtbl"; "randomize" ] when ctx.in_lib ->
    Some (Finding.L1, "randomized hashtables iterate in a seed-dependent order; replay needs a fixed order")
  | ( [ "Data_source"; ("query" | "query_fn" | "read_range") ]
    | [ _; "Data_source"; ("query" | "query_fn" | "read_range") ] )
    when not ctx.allow_query ->
    Some
      ( Finding.L4,
        "Data_source.query/query_fn/read_range outside Exec/Problem/Dr_source/Source_server \
         bypasses Q metering; use the query function the runtime hands to the protocol" )
  | [ ("exit" | "at_exit") ] when ctx.in_core_engine ->
    Some
      ( Finding.L5,
        "exit tears down the whole simulator from inside a fiber; return a value or raise" )
  | [ ("input_line" | "input_char" | "input_byte") ] when ctx.in_core_engine ->
    Some (Finding.L5, "blocking channel read inside fiber code stalls every simulated peer")
  | [ p ] when ctx.in_core_engine && List.exists (String.equal p) l5_blocking ->
    Some (Finding.L5, "blocking stdin read inside fiber code stalls every simulated peer")
  | [ p ] when ctx.in_lib && List.exists (String.equal p) l3_prints ->
    Some
      ( Finding.L3,
        p ^ " writes straight to the process stdout/stderr; take a Format.formatter parameter \
            (or go through Trace)" )
  | [ "Printf"; ("printf" | "eprintf") ] | [ "Format"; ("printf" | "eprintf" | "print_string" | "print_newline" | "print_flush" | "open_box" | "close_box") ]
    when ctx.in_lib ->
    Some
      ( Finding.L3,
        "implicit std_formatter output in lib/; take a Format.formatter parameter (or go \
         through Trace)" )
  | [ "Format"; ("std_formatter" | "err_formatter") ] when ctx.in_lib ->
    Some
      ( Finding.L3,
        "Format.std_formatter hard-wires the process stdout; take the formatter as a parameter" )
  | [ ("stdout" | "stderr") ] when ctx.in_lib ->
    Some (Finding.L3, "direct channel use in lib/; take an out_channel or formatter parameter")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* L2 operand shapes                                                  *)
(* ------------------------------------------------------------------ *)

(* Literal-ish: constants and constructors of constants ([], None,
   Some 3, (1, 2), `A). Comparing against these is unambiguous and cheap. *)
let rec literal_like e =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_construct (_, Some a) -> literal_like a
  | Pexp_variant (_, None) -> true
  | Pexp_variant (_, Some a) -> literal_like a
  | Pexp_tuple es -> List.for_all literal_like es
  | _ -> false

let getters =
  [
    [ "Array"; "get" ]; [ "Array"; "unsafe_get" ]; [ "String"; "get" ];
    [ "String"; "unsafe_get" ]; [ "Bytes"; "get" ]; [ "Bytes"; "unsafe_get" ]; [ "!" ];
  ]

(* Path-ish: a variable, field chain, array/ref read — a value that is
   typically scalar and whose comparison the author sees locally. *)
let rec path_like e =
  match e.pexp_desc with
  | Pexp_ident _ -> true
  | Pexp_field (b, _) -> path_like b
  | Pexp_constraint (b, _) -> path_like b
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, b) :: _) ->
    List.exists (part_eq (strip_stdlib (lident_parts txt))) getters && path_like b
  | _ -> false

let complex e = not (literal_like e) && not (path_like e)

let l2_compare_msg =
  "polymorphic compare is type-blind (allocation hazard, NaN-unsound); use Float.compare / \
   Int.compare / a monomorphic compare"

let l2_value_msg op =
  Printf.sprintf
    "polymorphic %s passed as a function; pass the monomorphic equivalent (Int.%s, \
     Float.compare, String.equal, ...)"
    op op

let l2_apply_msg op =
  Printf.sprintf
    "polymorphic %s on two computed operands; compare through the monomorphic equivalent \
     (Int/Float/String.compare or an explicit equal)"
    op

(* ------------------------------------------------------------------ *)
(* The pass                                                           *)
(* ------------------------------------------------------------------ *)

let collect ~ctx ~file (str : structure) : Finding.t list =
  let acc = ref [] in
  let add ~loc rule msg = acc := Finding.make ~file ~loc rule msg :: !acc in
  let check_head ~loc parts =
    match check_ident ctx parts with Some (rule, msg) -> add ~loc rule msg | None -> ()
  in
  (* A compare-family identifier in value position (not the head of an
     application): [Array.sort compare], [fold_left max], [( = )]. *)
  let check_bare ~loc parts =
    if ctx.in_lib then
      match parts with
      | [ "compare" ] -> add ~loc Finding.L2 l2_compare_msg
      | [ op ] when is_poly_binop op || is_minmax op -> add ~loc Finding.L2 (l2_value_msg op)
      | _ -> ()
  in
  let check_hashtbl_create ~loc parts args =
    if ctx.in_lib && part_eq parts [ "Hashtbl"; "create" ] then
      List.iter
        (fun (label, a) ->
          match label with
          | Labelled l when String.equal l "random" -> (
            match a.pexp_desc with
            | Pexp_construct ({ txt = Lident "false"; _ }, None) -> ()
            | _ ->
              add ~loc Finding.L1
                "Hashtbl.create ~random:true iterates in a seed-dependent order; replay needs a \
                 fixed order")
          | _ -> ())
        args
  in
  let check_poly_apply ~loc parts args =
    if ctx.in_lib then
      match parts with
      | [ "compare" ] -> add ~loc Finding.L2 l2_compare_msg
      | [ op ] when is_poly_binop op || is_minmax op -> (
        let operands = List.filter_map (function Nolabel, a -> Some a | _ -> None) args in
        match operands with
        | [ a; b ] -> if complex a && complex b then add ~loc Finding.L2 (l2_apply_msg op)
        | _ -> add ~loc Finding.L2 (l2_value_msg op) (* partial application *))
      | _ -> ()
  in
  let iter =
    object (self)
      inherit Ast_traverse.iter as super

      method! expression e =
        match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
          let parts = strip_stdlib (lident_parts txt) in
          (match check_ident ctx parts with
          | Some (rule, msg) -> add ~loc rule msg
          | None -> check_bare ~loc parts)
        | Pexp_apply (({ pexp_desc = Pexp_ident { txt; loc }; _ } as _f), args) ->
          let parts = strip_stdlib (lident_parts txt) in
          check_head ~loc parts;
          check_hashtbl_create ~loc parts args;
          check_poly_apply ~loc parts args;
          (* Do not visit the head: its banned/poly-op status was just
             classified with the benefit of seeing the operands. *)
          List.iter (fun (_, a) -> self#expression a) args
        | _ -> super#expression e

      method! module_expr m =
        (match m.pmod_desc with
        | Pmod_ident { txt; loc } -> check_head ~loc (strip_stdlib (lident_parts txt))
        | _ -> ());
        super#module_expr m
    end
  in
  iter#structure str;
  List.sort Finding.compare !acc
