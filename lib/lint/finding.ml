type rule = R1 | R2

let rule_name = function R1 -> "R1" | R2 -> "R2"

let rule_doc = function
  | R1 -> "domain zones: every escaping mutable cell/type carries a dr-race.zones declaration"
  | R2 -> "cross-zone access: engine-shared via Domain_safe only; per-domain stays in its subtree; init-only is never written post-init"

let race_rules = [ R1; R2 ]

type t = { file : string; line : int; col : int; rule : rule; msg : string }

let at ~file ~line ~col rule msg = { file; line; col; rule; msg }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (rule_name a.rule) (rule_name b.rule)

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d [%s] %s" f.file f.line f.col (rule_name f.rule) f.msg

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
