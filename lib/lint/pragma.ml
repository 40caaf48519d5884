(* Suppression pragmas.

   A comment opening with the marker, i.e.

     dr-race: allow R1 — reason

   wrapped in ordinary comment parens, suppresses findings of that rule on
   the comment's own line and on the next source line. The reason text is
   kept for the summary; pragmas that suppress nothing are reported as
   unused so stale allowances don't accumulate. (The scanner insists on a
   comment opener directly before the marker, so prose that merely mentions
   the syntax — like this block — is not a pragma.)

   The same directive form with the verb "zone" declares a zone inline
   (see Zones). *)

type t = { line : int; rule : Finding.rule; reason : string; at_eof : bool }

let marker = "dr-race:"

let is_space = function ' ' | '\t' -> true | _ -> false

let find_sub ~start hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.equal (String.sub hay i nn) needle then Some i
    else go (i + 1)
  in
  go start

let strip s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_space s.[!i] do incr i done;
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

(* Does [text.[.. at)] end with a comment opener (modulo spaces)? *)
let opener_before text at =
  let rec back i = if i >= 0 && is_space text.[i] then back (i - 1) else i in
  let i = back (at - 1) in
  i >= 1 && Char.equal text.[i] '*' && Char.equal text.[i - 1] '('

(* Strip a leading em-dash / hyphen separator and the comment close from a
   reason tail. *)
let clean_reason reason =
  let drop_prefix p s =
    let ns = String.length s and np = String.length p in
    if ns >= np && String.equal (String.sub s 0 np) p then strip (String.sub s np (ns - np))
    else s
  in
  let s = drop_prefix "\xe2\x80\x94" (drop_prefix "--" (drop_prefix "- " reason)) in
  let s = drop_prefix "\xe2\x80\x94" s in
  match find_sub ~start:0 s "*)" with
  | Some i -> strip (String.sub s 0 i)
  | None -> s

(* The payload after [marker verb] on one line; [None] when the line carries
   no well-formed directive. *)
let directive_of_line ~verb text =
  match find_sub ~start:0 text marker with
  | None -> None
  | Some at when not (opener_before text at) -> None
  | Some at ->
    let rest =
      String.sub text (at + String.length marker) (String.length text - at - String.length marker)
    in
    let rest = strip rest in
    let nr = String.length rest and nv = String.length verb in
    if nr < nv || not (String.equal (String.sub rest 0 nv) verb) then None
    else
      let payload = strip (String.sub rest nv (nr - nv)) in
      (* The comment close is delimiter, not payload. *)
      let payload =
        match find_sub ~start:0 payload "*)" with
        | Some i -> strip (String.sub payload 0 i)
        | None -> payload
      in
      Some payload

(* Parse one line; [None] when it carries no (well-formed) allow pragma. *)
let of_line ~line text =
  match directive_of_line ~verb:"allow" text with
  | None -> None
  | Some rest -> (
    (* Rule token: up to the first space (or end). *)
    let tok_end = match find_sub ~start:0 rest " " with Some i -> i | None -> String.length rest in
    let tok = String.sub rest 0 tok_end in
    match Finding.rule_of_string tok with
    | None -> None
    | Some rule ->
      let reason = clean_reason (strip (String.sub rest tok_end (String.length rest - tok_end))) in
      Some { line; rule; reason; at_eof = false })

let fold_lines source f acc =
  let lines = String.split_on_char '\n' source in
  (* A trailing newline yields a phantom empty last element; a pragma can
     never sit on it, but the real last source line must know it is last so
     [covers] doesn't reach past the end of the file. *)
  let total =
    match List.rev lines with "" :: (_ :: _ as rest) -> List.length rest | l -> List.length l
  in
  let _, acc =
    List.fold_left (fun (line, acc) text -> (line + 1, f ~line ~total text acc)) (1, acc) lines
  in
  acc

let scan source =
  List.rev
    (fold_lines source
       (fun ~line ~total text acc ->
         match of_line ~line text with
         | Some p -> { p with at_eof = line >= total } :: acc
         | None -> acc)
       [])

let directives ~verb source =
  List.rev
    (fold_lines source
       (fun ~line ~total:_ text acc ->
         match directive_of_line ~verb text with
         | Some payload -> (line, payload) :: acc
         | None -> acc)
       [])

let covers p (f : Finding.t) =
  Finding.rule_equal p.rule f.rule
  (* A pragma covers its own line and the line directly below — but a pragma
     on the last line of the file has no line below, and must not "cover"
     findings that happen to carry an out-of-range position. *)
  && (f.line = p.line || (f.line = p.line + 1 && not p.at_eof))
