(* L2, monomorphic compare, as a single pass over the Parsetree.

   Everything here is purely syntactic: no typing information is available,
   so the rule is calibrated to be precise on the shapes this codebase
   actually uses (see DESIGN.md "Static invariants"). The escape hatch for a
   deliberate exception is a dr-lint allow pragma (see Pragma). The name
   bans (L1, L3, L4, L5) are compiler alerts, declared in the prelude. *)

open Ppxlib

(* ------------------------------------------------------------------ *)
(* Identifier shapes                                                  *)
(* ------------------------------------------------------------------ *)

let lident_parts txt = try Longident.flatten_exn txt with _ -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let part_eq = List.equal String.equal

let poly_binops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]
let is_poly_binop s = List.exists (String.equal s) poly_binops
let is_minmax s = String.equal s "min" || String.equal s "max"

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

let collect ~file (str : structure) : Finding.t list =
  let acc = ref [] in
  let add ~loc msg = acc := Finding.make ~file ~loc Finding.L2 msg :: !acc in
  (* A compare-family identifier in value position (not the head of an
     application): [Array.sort compare], [fold_left max], [( = )]. *)
  let check_bare ~loc parts =
    match parts with
    | [ "compare" ] -> add ~loc l2_compare_msg
    | [ op ] when is_poly_binop op || is_minmax op -> add ~loc (l2_value_msg op)
    | _ -> ()
  in
  let check_poly_apply ~loc parts args =
    match parts with
    | [ "compare" ] -> add ~loc l2_compare_msg
    | [ op ] when is_poly_binop op || is_minmax op -> (
      let operands = List.filter_map (function Nolabel, a -> Some a | _ -> None) args in
      match operands with
      | [ a; b ] -> if complex a && complex b then add ~loc (l2_apply_msg op)
      | _ -> add ~loc (l2_value_msg op) (* partial application *))
    | _ -> ()
  in
  let iter =
    object (self)
      inherit Ast_traverse.iter as super

      method! expression e =
        match e.pexp_desc with
        | Pexp_ident { txt; loc } -> check_bare ~loc (strip_stdlib (lident_parts txt))
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
          check_poly_apply ~loc (strip_stdlib (lident_parts txt)) args;
          (* Do not visit the head: its poly-op status was just classified
             with the benefit of seeing the operands. *)
          List.iter (fun (_, a) -> self#expression a) args
        | _ -> super#expression e
    end
  in
  iter#structure str;
  List.sort Finding.compare !acc
