type event =
  | Sent of { time : float; src : int; dst : int; size_bits : int; tag : string }
  | Delivered of { time : float; src : int; dst : int; tag : string }
  | Queried of { time : float; peer : int; index : int; value : bool }
  | Crashed of { time : float; peer : int }
  | Terminated of { time : float; peer : int }
  | Deadlocked of { time : float; blocked : int list }

type t = { mutable items : event array; mutable len : int }

let create ?(capacity = 256) () =
  let capacity = max capacity 1 in
  { items = Array.make capacity (Terminated { time = 0.; peer = -1 }); len = 0 }

let record t ev =
  if t.len = Array.length t.items then begin
    let items = Array.make (2 * t.len) ev in
    Array.blit t.items 0 items 0 t.len;
    t.items <- items
  end;
  t.items.(t.len) <- ev;
  t.len <- t.len + 1

let events t = Array.to_list (Array.sub t.items 0 t.len)
let length t = t.len

let involves peer = function
  | Sent { src; dst; _ } | Delivered { src; dst; _ } -> src = peer || dst = peer
  | Queried { peer = p; _ } | Crashed { peer = p; _ } | Terminated { peer = p; _ } -> p = peer
  | Deadlocked { blocked; _ } -> List.exists (Int.equal peer) blocked

let events_of_peer t peer = List.filter (involves peer) (events t)

let received_view t peer =
  List.filter_map
    (function
      | Delivered { time; src; dst; tag } when dst = peer -> Some (time, src, tag)
      | _ -> None)
    (events t)

let query_view t peer =
  List.filter_map
    (function
      | Queried { peer = p; index; value; _ } when p = peer -> Some (index, value)
      | _ -> None)
    (events t)

let pp_event ppf = function
  | Sent { time; src; dst; size_bits; tag } ->
    Format.fprintf ppf "%8.3f send  %3d -> %3d  %s (%d bits)" time src dst tag size_bits
  | Delivered { time; src; dst; tag } ->
    Format.fprintf ppf "%8.3f recv  %3d -> %3d  %s" time src dst tag
  | Queried { time; peer; index; value } ->
    Format.fprintf ppf "%8.3f query %3d X[%d] = %b" time peer index value
  | Crashed { time; peer } -> Format.fprintf ppf "%8.3f CRASH %3d" time peer
  | Terminated { time; peer } -> Format.fprintf ppf "%8.3f done  %3d" time peer
  | Deadlocked { time; blocked } ->
    Format.fprintf ppf "%8.3f DEADLOCK blocked=[%s]" time
      (String.concat "," (List.map string_of_int blocked))

let pp ppf t =
  List.iter (fun ev -> Format.fprintf ppf "%a@." pp_event ev) (events t)

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let event_to_line = function
  | Sent { time; src; dst; size_bits; tag } ->
    Printf.sprintf "sent %.9g %d %d %d %s" time src dst size_bits tag
  | Delivered { time; src; dst; tag } -> Printf.sprintf "recv %.9g %d %d %s" time src dst tag
  | Queried { time; peer; index; value } ->
    Printf.sprintf "query %.9g %d %d %d" time peer index (if value then 1 else 0)
  | Crashed { time; peer } -> Printf.sprintf "crash %.9g %d" time peer
  | Terminated { time; peer } -> Printf.sprintf "done %.9g %d" time peer
  | Deadlocked { time; blocked } ->
    Printf.sprintf "deadlock %.9g %s" time (String.concat "," (List.map string_of_int blocked))

let split_n line n =
  (* First n space-separated fields, then the rest of the line verbatim. *)
  let rec go start acc remaining =
    if remaining = 0 then (List.rev acc, String.sub line start (String.length line - start))
    else begin
      match String.index_from_opt line start ' ' with
      | Some sp ->
        go (sp + 1) (String.sub line start (sp - start) :: acc) (remaining - 1)
      | None -> (List.rev (String.sub line start (String.length line - start) :: acc), "")
    end
  in
  go 0 [] n

let event_of_line line =
  let fail () = failwith "malformed trace line" in
  let f = float_of_string and i = int_of_string in
  match split_n line 1 with
  | [ "sent" ], rest -> (
    match split_n rest 4 with
    | [ t; src; dst; size ], tag ->
      Sent { time = f t; src = i src; dst = i dst; size_bits = i size; tag }
    | _ -> fail ())
  | [ "recv" ], rest -> (
    match split_n rest 3 with
    | [ t; src; dst ], tag -> Delivered { time = f t; src = i src; dst = i dst; tag }
    | _ -> fail ())
  | [ "query" ], rest -> (
    match String.split_on_char ' ' rest with
    | [ t; peer; index; v ] ->
      Queried { time = f t; peer = i peer; index = i index; value = String.equal v "1" }
    | _ -> fail ())
  | [ "crash" ], rest -> (
    match String.split_on_char ' ' rest with
    | [ t; peer ] -> Crashed { time = f t; peer = i peer }
    | _ -> fail ())
  | [ "done" ], rest -> (
    match String.split_on_char ' ' rest with
    | [ t; peer ] -> Terminated { time = f t; peer = i peer }
    | _ -> fail ())
  | [ "deadlock" ], rest -> (
    match String.split_on_char ' ' rest with
    | [ t; blocked ] ->
      Deadlocked
        { time = f t; blocked = List.map i (String.split_on_char ',' blocked) }
    | _ -> fail ())
  | _ -> fail ()

(* A tag with a newline would split its event over two lines, which [load]
   then rejects; refuse it before the file is touched. *)
let check_tags t =
  for i = 0 to t.len - 1 do
    match t.items.(i) with
    | (Sent { tag; _ } | Delivered { tag; _ }) as ev when String.contains tag '\n' ->
      invalid_arg
        (Printf.sprintf "Trace.save: event %d (%s) has a tag containing a newline" i
           (String.escaped (event_to_line ev)))
    | _ -> ()
  done

let save t path =
  check_tags t;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun ev -> output_string oc (event_to_line ev ^ "\n")) (events t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let t = create () in
      let lineno = ref 0 in
      (try
         while true do
           (* Trace persistence: load runs outside the event loop. *)
           let line = (input_line [@alert "-l5"]) ic in
           incr lineno;
           if not (String.equal (String.trim line) "") then
             match event_of_line line with
             | ev -> record t ev
             | exception _ -> failwith (Printf.sprintf "%s: bad trace line %d" path !lineno)
         done
       with End_of_file -> ());
      t)
