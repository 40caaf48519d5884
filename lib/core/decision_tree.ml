module Bitarray = Dr_source.Bitarray

type t = Leaf of Bitarray.t | Node of { index : int; zero : t; one : t }

let rec build_sorted = function
  | [] -> invalid_arg "Decision_tree.build: empty candidate set"
  | [ s ] -> Leaf s
  | first :: (second :: _ as rest) -> (
    match Bitarray.first_diff first second with
    | None -> build_sorted (first :: List.tl rest)  (* duplicates already merged; defensive *)
    | Some index ->
      let zero_set, one_set =
        List.partition (fun s -> not (Bitarray.get s index)) (first :: rest)
      in
      (* Both sides are non-empty: [first] and [second] differ at [index]. *)
      Node { index; zero = build_sorted zero_set; one = build_sorted one_set })

(* One candidate is its own leaf, built without sorting or a length check
   (each allocates). *)
let build strings =
  match strings with
  | [] -> invalid_arg "Decision_tree.build: empty candidate set"
  | [ s ] -> Leaf s
  | s :: rest ->
    let len = Bitarray.length s in
    if List.exists (fun s' -> Bitarray.length s' <> len) rest then
      invalid_arg "Decision_tree.build: candidates must have equal length";
    build_sorted (List.sort_uniq Bitarray.compare strings)

let rec internal_nodes = function
  | Leaf _ -> 0
  | Node { zero; one; _ } -> 1 + internal_nodes zero + internal_nodes one

let determine ~query ~offset tree =
  let rec walk tree spent =
    match tree with
    | Leaf s -> (s, spent)
    | Node { index; zero; one } ->
      if query (offset + index) then walk one (spent + 1) else walk zero (spent + 1)
  in
  walk tree 0
