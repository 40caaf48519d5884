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
