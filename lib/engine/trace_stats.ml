let matrix_of trace ~k weight =
  let m = Array.make_matrix k k 0 in
  List.iter
    (fun ev ->
      match weight ev with
      | Some (src, dst, w) when src >= 0 && src < k && dst >= 0 && dst < k ->
        m.(src).(dst) <- m.(src).(dst) + w
      | Some _ | None -> ())
    (Trace.events trace);
  m

let message_matrix trace ~k =
  matrix_of trace ~k (function
    | Trace.Sent { src; dst; _ } -> Some (src, dst, 1)
    | _ -> None)

let bits_matrix trace ~k =
  matrix_of trace ~k (function
    | Trace.Sent { src; dst; size_bits; _ } -> Some (src, dst, size_bits)
    | _ -> None)

let pp_matrix ?(label = "msgs") ppf m =
  let k = Array.length m in
  let width =
    Array.fold_left
      (fun acc row -> Array.fold_left (fun acc w -> max acc (String.length (string_of_int w))) acc row)
      (String.length label) m
  in
  Format.fprintf ppf "%*s" (width + 1) label;
  for dst = 0 to k - 1 do
    Format.fprintf ppf " %*d" width dst
  done;
  Format.pp_print_newline ppf ();
  for src = 0 to k - 1 do
    Format.fprintf ppf "%*d" (width + 1) src;
    for dst = 0 to k - 1 do
      Format.fprintf ppf " %*d" width m.(src).(dst)
    done;
    Format.pp_print_newline ppf ()
  done

let pp_lanes ?(max_events = 200) ~k ppf trace =
  let lane_width = 7 in
  let cell peer text cells =
    if peer >= 0 && peer < k then cells.(peer) <- text
  in
  Format.fprintf ppf "%8s" "time";
  for p = 0 to k - 1 do
    Format.fprintf ppf " |%-*s" (lane_width - 2) (Printf.sprintf "p%d" p)
  done;
  Format.pp_print_newline ppf ();
  let shown = ref 0 in
  List.iter
    (fun ev ->
      if !shown < max_events then begin
        incr shown;
        let cells = Array.make k "" in
        let time =
          match ev with
          | Trace.Sent { time; src; dst; tag; _ } ->
            cell src (Printf.sprintf ">%d %s" dst tag) cells;
            time
          | Trace.Delivered { time; src; dst; _ } ->
            cell dst (Printf.sprintf "<%d" src) cells;
            time
          | Trace.Queried { time; peer; index; value } ->
            cell peer (Printf.sprintf "?%d=%d" index (if value then 1 else 0)) cells;
            time
          | Trace.Crashed { time; peer } ->
            cell peer "X" cells;
            time
          | Trace.Terminated { time; peer } ->
            cell peer "#" cells;
            time
          | Trace.Deadlocked { time; blocked } ->
            List.iter (fun p -> cell p "...." cells) blocked;
            time
        in
        Format.fprintf ppf "%8.3f" time;
        Array.iter
          (fun c ->
            let keep = lane_width - 2 in
            let c = if String.length c > keep then String.sub c 0 keep else c in
            Format.fprintf ppf " |%-*s" keep c)
          cells;
        Format.pp_print_newline ppf ()
      end)
    (Trace.events trace);
  if !shown >= max_events then Format.fprintf ppf "... (%d more events)@." (Trace.length trace - !shown)
