(* The campaign's corpus: recorded arbiter scripts that lit up new coverage.

   An entry is a complete replayable recipe — the scenario (protocol, attack,
   instance parameters, seed, crash plan) plus the recorded choice script —
   together with how many signatures were new when it was admitted. The
   mutation phase picks entries at random (via the campaign's seeded Prng, so
   deterministically) and perturbs them; Mutate owns the perturbations.

   On disk a corpus is a directory of entry-NNNN.json files (schema
   dr-corpus/1, a superset of the dr-check repro fields minus the violation).
   File numbering is admission order, so saving the same campaign twice
   produces identical directories. *)

module Json = Dr_stats.Json
module Crash_plan = Dr_adversary.Crash_plan

type entry = { scenario : Repro.scenario; script : int list; new_signatures : int }

type t = { mutable rev_entries : entry list; mutable size : int }

let create () = { rev_entries = []; size = 0 }

let add t e =
  t.rev_entries <- e :: t.rev_entries;
  t.size <- t.size + 1

let size t = t.size

let to_list t = List.rev t.rev_entries

let pick prng t =
  if t.size = 0 then None
  else Some (List.nth t.rev_entries (Dr_engine.Prng.int prng t.size))

let schema_id = "dr-corpus/1"

let entry_to_json e =
  let s = e.scenario in
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": \"%s\",\n" schema_id);
  Buffer.add_string b (Printf.sprintf "  \"protocol\": \"%s\",\n" (Json.escape s.Repro.protocol));
  Buffer.add_string b (Printf.sprintf "  \"attack\": \"%s\",\n" (Json.escape s.Repro.attack));
  Buffer.add_string b
    (Printf.sprintf "  \"k\": %d, \"n\": %d, \"t\": %d,\n" s.Repro.k s.Repro.n s.Repro.t);
  Buffer.add_string b (Printf.sprintf "  \"seed\": \"%Ld\",\n" s.Repro.seed);
  Buffer.add_string b
    (Printf.sprintf "  \"crash\": \"%s\",\n" (Crash_plan.descriptor_to_string s.Repro.crash));
  Buffer.add_string b
    (Printf.sprintf "  \"script\": [ %s ],\n"
       (String.concat ", " (List.map string_of_int e.script)));
  Buffer.add_string b (Printf.sprintf "  \"new_signatures\": %d\n" e.new_signatures);
  Buffer.add_string b "}\n";
  Buffer.contents b

let int_field root key =
  let f = Json.num root key in
  let i = int_of_float f in
  if float_of_int i <> f then
    failwith (Printf.sprintf "Corpus.entry_of_json: %s is not an integer" key);
  i

let entry_of_json text =
  let root = Json.parse text in
  let schema = Json.str root "schema" in
  if not (String.equal schema schema_id) then
    failwith
      (Printf.sprintf "Corpus.entry_of_json: unsupported schema %S (want %S)" schema schema_id);
  let crash_s = Json.str root "crash" in
  let crash =
    match Crash_plan.descriptor_of_string crash_s with
    | Some d -> d
    | None -> failwith (Printf.sprintf "Corpus.entry_of_json: unknown crash descriptor %S" crash_s)
  in
  let seed_s = Json.str root "seed" in
  let seed =
    match Int64.of_string_opt seed_s with
    | Some s -> s
    | None -> failwith (Printf.sprintf "Corpus.entry_of_json: malformed seed %S" seed_s)
  in
  let script =
    match Json.member root "script" with
    | Some (Json.Arr items) ->
      List.map
        (function
          | Json.Num f ->
            let i = int_of_float f in
            if float_of_int i <> f || i < 0 then
              failwith "Corpus.entry_of_json: script entries must be nonnegative integers";
            i
          | _ -> failwith "Corpus.entry_of_json: script entries must be numbers")
        items
    | _ -> failwith "Corpus.entry_of_json: missing script array"
  in
  {
    scenario =
      {
        Repro.protocol = Json.str root "protocol";
        attack = Json.str root "attack";
        k = int_field root "k";
        n = int_field root "n";
        t = int_field root "t";
        seed;
        crash;
      };
    script;
    new_signatures = int_field root "new_signatures";
  }

let entry_file i = Printf.sprintf "entry-%04d.json" i

let save t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i e ->
      let oc = open_out (Filename.concat dir (entry_file i)) in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (entry_to_json e)))
    (to_list t)

let load ~dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json" && String.length f > 6)
    |> List.filter (fun f -> String.equal (String.sub f 0 6) "entry-")
    |> List.sort String.compare
  in
  let t = create () in
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      add t (entry_of_json text))
    files;
  t
