type outcome = {
  schedules_run : int;
  exhausted : bool;
  failures : int;
  first_failure : int list option;
  max_depth : int;
}

(* The one script-following arbiter: take the next scripted choice, clamp
   it to [count - 1], and once the script runs out ask [fallback]. *)
let follow script fallback =
  let remaining = ref script in
  fun count ->
    match !remaining with
    | c :: tl ->
      remaining := tl;
      if c < count then c else count - 1
    | [] -> fallback count

let scripted script = follow script (fun _ -> 0)

let record arbiter =
  let log = ref [] in
  let recording count =
    let c = arbiter count in
    (* Clamp exactly like the simulator does, so the recorded script is the
       schedule that actually fired. *)
    let c = if c < 0 || c >= count then 0 else c in
    log := c :: !log;
    c
  in
  (recording, fun () -> List.rev !log)

let random prng count = Prng.int prng count

let scripted_then_random script prng = follow script (random prng)

(* ------------------------------------------------------------------ *)
(* Coverage signatures                                                *)
(* ------------------------------------------------------------------ *)

(* FNV-1a, written out so signatures never depend on Hashtbl.hash's
   representation-sensitive behavior: byte-exact across runs and builds.
   64-bit FNV-1a in native ints: [lxor] and [*] wrap modulo 2^63, so every
   bit below 63 equals the [Int64] computation's, and only the low 30 are
   kept. The basis is the low 63 bits of 0xcbf29ce484222325. *)
let fnv_prime = 0x100000001b3
let fnv_basis = 0x4bf29ce484222325

let mix h byte = (h lxor (byte land 0xff)) * fnv_prime

let signature ?(bucket = 8) (o : Sim.obs) =
  let kind =
    match o.Sim.obs_kind with
    | Sim.Obs_start -> 1
    | Sim.Obs_deliver -> 2
    | Sim.Obs_crash -> 3
    | Sim.Obs_query_reply -> 4
    | Sim.Obs_wake -> 5
  in
  let h = ref (mix fnv_basis kind) and tag = o.Sim.obs_tag in
  for i = 0 to String.length tag - 1 do
    h := mix !h (Char.code (String.unsafe_get tag i))
  done;
  let b = o.Sim.obs_step / max bucket 1 in
  mix (mix (mix !h b) (b lsr 8)) (b lsr 16) land 0x3FFFFFFF

type probe = { observer : Sim.obs -> unit; hits : unit -> int list }

let probe ?bucket () =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let observer o =
    let s = signature ?bucket o in
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      order := s :: !order
    end
  in
  { observer; hits = (fun () -> List.rev !order) }

let dfs ~budget ~run =
  (* The DFS frontier is a choice script: replay it, extend with zeros, and
     record (choice, alternatives) per step; backtracking increments the
     deepest incrementable position. Prefix determinism (same choices, same
     execution) makes replay exact. *)
  let script = ref [] in
  let schedules = ref 0 in
  let failures = ref 0 in
  let first_failure = ref None in
  let max_depth = ref 0 in
  let exhausted = ref false in
  (try
     while !schedules < budget do
       let log = ref [] in
       let next = scripted !script in
       let arbiter count =
         let choice = next count in
         log := (choice, count) :: !log;
         choice
       in
       let ok = run ~arbiter in
       incr schedules;
       let choices = List.rev !log in
       if List.length choices > !max_depth then max_depth := List.length choices;
       if not ok then begin
         incr failures;
         if Option.is_none !first_failure then first_failure := Some (List.map fst choices)
       end;
       (* Next schedule: bump the deepest position with room to grow. *)
       let rec next_script rev_prefix = function
         | [] -> None
         | (choice, count) :: rest ->
           (match next_script ((choice, count) :: rev_prefix) rest with
           | Some s -> Some s
           | None ->
             if choice + 1 < count then
               Some (List.rev_map fst rev_prefix @ [ choice + 1 ])
             else None)
       in
       match next_script [] choices with
       | Some s -> script := s
       | None ->
         exhausted := true;
         raise Exit
     done
   with Exit -> ());
  {
    schedules_run = !schedules;
    exhausted = !exhausted;
    failures = !failures;
    first_failure = !first_failure;
    max_depth = !max_depth;
  }
