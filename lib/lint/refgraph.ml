(* The cross-module reference graph: which compilation units read or write
   each inventoried cell, and which units reach into which other units at
   all. Purely syntactic, over the resolved longidents of every unit.

   Classification is calibrated, not sound: a cell passed whole to an
   unknown function is recorded as a Read (the repo idiom passes cells to
   their own module's accessors, which are seen separately); the known
   stdlib mutators (Hashtbl.replace, Buffer.add_*, [:=], [<-], ...) are
   recorded as Writes. *)

open Ppxlib

type access_kind = Read | Write

type access = {
  a_key : string;  (* Inventory.key of the cell *)
  a_unit : string;  (* accessing unit *)
  a_path : string;
  a_line : int;
  a_col : int;
  a_kind : access_kind;
  a_fn : string option;  (* enclosing module-level binding; None = toplevel eval *)
  a_in_fun : bool;  (* under a lambda: runs post-init, not at module init *)
}

type uref = {
  r_unit : string;  (* referenced unit *)
  r_ident : string;  (* first ident inside it, "" for a bare module reference *)
  r_path : string;
  r_line : int;
  r_col : int;
}

let lident_parts txt = try Longident.flatten_exn txt with _ -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

(* Known in-place mutators, by container module. *)
let mutators =
  [
    ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Queue", [ "add"; "push"; "pop"; "take"; "take_opt"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "pop_opt"; "clear"; "drop" ]);
    ( "Buffer",
      [
        "add_char"; "add_string"; "add_bytes"; "add_substring"; "add_subbytes"; "add_buffer";
        "add_channel"; "clear"; "reset"; "truncate";
      ] );
    ("Array", [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "fast_sort"; "stable_sort"; "shuffle" ]);
    ("Bytes", [ "set"; "unsafe_set"; "fill"; "blit"; "blit_string" ]);
    ("Atomic", [ "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr"; "decr" ]);
  ]

let is_mutator parts =
  match parts with
  | [ ":=" ] | [ "incr" ] | [ "decr" ] -> true
  | [ m; f ] -> (
    match List.assoc_opt m mutators with
    | Some fns -> List.exists (String.equal f) fns
    | None -> false)
  | _ -> false

let pos_of loc =
  let start = loc.Location.loc_start in
  (start.Lexing.pos_lnum, start.Lexing.pos_cnum - start.Lexing.pos_bol)

let accesses_of_unit table (self : Symbols.unit_info) ~(cells : (string, Inventory.item) Hashtbl.t)
    : access list * uref list =
  let accs = ref [] and urefs = ref [] in
  let cur_fn = ref None in
  let lambda_depth = ref 0 in
  let resolve parts = Symbols.resolve table ~self parts in
  (* The inventoried cell this expression denotes, if any. *)
  let rec cell_of e =
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> cell_of e
    | Pexp_ident { txt; loc } -> (
      let parts = strip_stdlib (lident_parts txt) in
      match resolve parts with
      | Some (u, rest) when not (List.is_empty rest) -> (
        let key = String.concat "." (u :: rest) in
        match Hashtbl.find_opt cells key with Some _ -> Some (key, loc) | None -> None)
      | _ -> None)
    | _ -> None
  in
  let note_access ~loc key kind =
    let line, col = pos_of loc in
    accs :=
      {
        a_key = key;
        a_unit = self.name;
        a_path = self.path;
        a_line = line;
        a_col = col;
        a_kind = kind;
        a_fn = !cur_fn;
        a_in_fun = !lambda_depth > 0;
      }
      :: !accs
  in
  let note_uref ~loc parts =
    match resolve parts with
    | Some (u, rest) when not (String.equal u self.name) ->
      let line, col = pos_of loc in
      urefs :=
        {
          r_unit = u;
          r_ident = (match rest with i :: _ -> i | [] -> "");
          r_path = self.path;
          r_line = line;
          r_col = col;
        }
        :: !urefs
    | _ -> ()
  in
  let iter =
    object (this)
      inherit Ast_traverse.iter as super

      method! structure_item item =
        (match item.pstr_desc with
        | Pstr_value (_, bindings) ->
          List.iter
            (fun vb ->
              (match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ }
              | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
                cur_fn := Some txt
              | _ -> cur_fn := None);
              this#value_binding vb;
              cur_fn := None)
            bindings
        | _ -> super#structure_item item)

      method! expression e =
        match e.pexp_desc with
        | Pexp_ident { txt; loc } -> (
          let parts = strip_stdlib (lident_parts txt) in
          note_uref ~loc parts;
          match cell_of e with Some (key, loc) -> note_access ~loc key Read | None -> ())
        | Pexp_setfield (b, _, v) ->
          (match cell_of b with
          | Some (key, loc) -> note_access ~loc key Write
          | None -> this#expression b);
          this#expression v
        | Pexp_function _ ->
          incr lambda_depth;
          super#expression e;
          decr lambda_depth
        | Pexp_apply (({ pexp_desc = Pexp_ident { txt; loc = hloc }; _ } as _head), args) ->
          let parts = strip_stdlib (lident_parts txt) in
          note_uref ~loc:hloc parts;
          let writes = is_mutator parts in
          List.iter
            (fun (_, a) ->
              match cell_of a with
              | Some (key, loc) -> note_access ~loc key (if writes then Write else Read)
              | None -> this#expression a)
            args
        | _ -> super#expression e
    end
  in
  iter#structure self.str;
  (List.rev !accs, List.rev !urefs)

let build table (units : Symbols.unit_info list) (items : Inventory.item list) =
  let cells = Hashtbl.create 64 in
  List.iter
    (fun (it : Inventory.item) ->
      match it.sort with
      | Inventory.Value -> Hashtbl.replace cells (Inventory.key it) it
      | Inventory.Type -> ())
    items;
  let accs, urefs =
    List.fold_left
      (fun (accs, urefs) u ->
        let a, r = accesses_of_unit table u ~cells in
        (a :: accs, r :: urefs))
      ([], []) units
  in
  (List.concat (List.rev accs), List.concat (List.rev urefs))
