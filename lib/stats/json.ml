type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float

type cursor = { src : string; mutable pos : int }

let fail c msg = failwith (Printf.sprintf "Json: %s at byte %d" msg c.pos)

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when Char.equal x ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.src then fail c "unterminated string";
    match c.src.[c.pos] with
    | '"' -> c.pos <- c.pos + 1
    | '\\' ->
      if c.pos >= String.length c.src - 1 then fail c "bad escape";
      (match c.src.[c.pos + 1] with
      | '"' -> Buffer.add_char b '"'
      | '\\' -> Buffer.add_char b '\\'
      | 'n' -> Buffer.add_char b '\n'
      | 't' -> Buffer.add_char b '\t'
      | ch -> fail c (Printf.sprintf "unsupported escape \\%c" ch));
      c.pos <- c.pos + 2;
      go ()
    | ch ->
      Buffer.add_char b ch;
      c.pos <- c.pos + 1;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
  while c.pos < String.length c.src && is_num c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c "expected number";
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some f -> f
  | None -> fail c "malformed number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if Option.equal Char.equal (peek c) (Some '}') then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          members ((key, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          List.rev ((key, v) :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if Option.equal Char.equal (peek c) (Some ']') then begin
      c.pos <- c.pos + 1;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          items (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      Arr (items [])
    end
  | Some '"' -> Str (parse_string c)
  | Some _ -> Num (parse_number c)
  | None -> fail c "unexpected end of input"

let parse text =
  let c = { src = text; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length c.src then fail c "trailing bytes after the value";
  v

let member obj key =
  match obj with
  | Obj kvs -> List.find_map (fun (k, v) -> if String.equal k key then Some v else None) kvs
  | _ -> None

let str obj key =
  match member obj key with
  | Some (Str s) -> s
  | _ -> failwith ("Json: missing string field " ^ key)

let num obj key =
  match member obj key with
  | Some (Num f) -> f
  | _ -> failwith ("Json: missing number field " ^ key)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
