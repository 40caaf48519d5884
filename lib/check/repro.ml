module Json = Dr_stats.Json
module Crash_plan = Dr_adversary.Crash_plan

type scenario = {
  protocol : string;
  attack : string;
  k : int;
  n : int;
  t : int;
  seed : int64;
  crash : Crash_plan.descriptor;
}

type t = {
  scenario : scenario;
  script : int list;
  invariant : string;
  event : int;
  detail : string;
}

let schema_id = "dr-check/1"

let to_json r =
  let s = r.scenario in
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": \"%s\",\n" schema_id);
  Buffer.add_string b (Printf.sprintf "  \"protocol\": \"%s\",\n" (Json.escape s.protocol));
  Buffer.add_string b (Printf.sprintf "  \"attack\": \"%s\",\n" (Json.escape s.attack));
  Buffer.add_string b (Printf.sprintf "  \"k\": %d, \"n\": %d, \"t\": %d,\n" s.k s.n s.t);
  Buffer.add_string b (Printf.sprintf "  \"seed\": \"%Ld\",\n" s.seed);
  Buffer.add_string b
    (Printf.sprintf "  \"crash\": \"%s\",\n" (Crash_plan.descriptor_to_string s.crash));
  Buffer.add_string b
    (Printf.sprintf "  \"script\": [ %s ],\n"
       (String.concat ", " (List.map string_of_int r.script)));
  Buffer.add_string b (Printf.sprintf "  \"invariant\": \"%s\",\n" (Json.escape r.invariant));
  Buffer.add_string b (Printf.sprintf "  \"event\": %d,\n" r.event);
  Buffer.add_string b (Printf.sprintf "  \"detail\": \"%s\"\n" (Json.escape r.detail));
  Buffer.add_string b "}\n";
  Buffer.contents b

let int_field root key =
  let f = Json.num root key in
  let i = int_of_float f in
  if float_of_int i <> f then failwith (Printf.sprintf "Repro.of_json: %s is not an integer" key);
  i

let of_json text =
  let root = Json.parse text in
  let schema = Json.str root "schema" in
  if schema <> schema_id then
    failwith (Printf.sprintf "Repro.of_json: unsupported schema %S (want %S)" schema schema_id);
  let crash_s = Json.str root "crash" in
  let crash =
    match Crash_plan.descriptor_of_string crash_s with
    | Some d -> d
    | None -> failwith (Printf.sprintf "Repro.of_json: unknown crash descriptor %S" crash_s)
  in
  let seed_s = Json.str root "seed" in
  let seed =
    match Int64.of_string_opt seed_s with
    | Some s -> s
    | None -> failwith (Printf.sprintf "Repro.of_json: malformed seed %S" seed_s)
  in
  let script =
    match Json.member root "script" with
    | Some (Json.Arr items) ->
      List.map
        (function
          | Json.Num f ->
            let i = int_of_float f in
            if float_of_int i <> f || i < 0 then
              failwith "Repro.of_json: script entries must be nonnegative integers";
            i
          | _ -> failwith "Repro.of_json: script entries must be numbers")
        items
    | _ -> failwith "Repro.of_json: missing script array"
  in
  {
    scenario =
      {
        protocol = Json.str root "protocol";
        attack = Json.str root "attack";
        k = int_field root "k";
        n = int_field root "n";
        t = int_field root "t";
        seed;
        crash;
      };
    script;
    invariant = Json.str root "invariant";
    event = int_field root "event";
    detail = Json.str root "detail";
  }

let write ~path r =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json r))

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_json (really_input_string ic (in_channel_length ic)))

let pp ppf r =
  Format.fprintf ppf "%s/%s k=%d n=%d t=%d seed=%Ld crash=%s: %s at event %d (script length %d)"
    r.scenario.protocol r.scenario.attack r.scenario.k r.scenario.n r.scenario.t r.scenario.seed
    (Crash_plan.descriptor_to_string r.scenario.crash)
    r.invariant r.event (List.length r.script)
