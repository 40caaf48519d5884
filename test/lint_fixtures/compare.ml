(* Fixture: rule L2, int-only comparison in lib/. Lines 3-9 each fail alone
   under lib/'s flags; lines 11-14 compile. *)
let same (a : float) b = a = b
let changed (xs : int list) ys = xs <> ys
let order (a : string) b = compare a b
type colour = Red | Blue let is_red c = c = Red
let sort_floats (a : float array) = Array.sort compare a
let widest (a : float) b = max a b
let order_any a b = Stdlib.compare a b
(* The int shapes, Fl's float operators (which leave Array alone) and a waiver compile. *)
let widest xs ys = max (List.length xs) (List.length ys)
let fold_max xs = List.fold_left max 0 xs
let below (f : float array) x = Fl.(x < f.(0))
let order_any a b = (Stdlib.compare [@alert "-l2"]) a b
