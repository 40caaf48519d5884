type t = { headers : string list; mutable rows : string list list (* reversed *) }

let create headers = { headers; rows = [] }

let add_row t cells =
  let hc = List.length t.headers in
  let cc = List.length cells in
  if cc > hc then invalid_arg "Table.add_row: more cells than headers";
  let cells = cells @ List.init (hc - cc) (fun _ -> "") in
  t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c))
    rows;
  let buf = Buffer.create 1024 in
  let pad i s =
    Buffer.add_string buf s;
    Buffer.add_string buf (String.make (widths.(i) - String.length s) ' ')
  in
  let emit_row cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        pad i c)
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row t.headers;
  let total = Array.fold_left ( + ) 0 widths + (2 * (Array.length widths - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

(* dr-lint: allow L3 — the documented default sink; callers in bin//bench pass nothing *)
let print ?(ppf = Format.std_formatter) t =
  Format.pp_print_string ppf (render t);
  Format.pp_print_flush ppf ()

let cell_int = string_of_int
let cell_bool b = if b then "yes" else "no"
