module Prng = Dr_engine.Prng

type blackout =
  | Time_window of { at : float; dur : float }
  | Query_window of { at : int; count : int }

type plan = {
  drop : float;
  corrupt : float;
  stall : float;
  stall_peer : int option;
  disconnect : (int * int) option;
  reply_loss : float;
  blackout : blackout option;
}

let none =
  {
    drop = 0.;
    corrupt = 0.;
    stall = 0.;
    stall_peer = None;
    disconnect = None;
    reply_loss = 0.;
    blackout = None;
  }

let is_none p =
  Float.equal p.drop 0. && Float.equal p.corrupt 0. && Float.equal p.stall 0.
  && Option.is_none p.disconnect
  && Float.equal p.reply_loss 0.
  && Option.is_none p.blackout

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                       *)
(* ------------------------------------------------------------------ *)

let duration_of_string s =
  let num_of t =
    match float_of_string_opt t with
    | Some v when Fl.(v >= 0.) && Float.is_finite v -> Ok v
    | _ -> Error (Printf.sprintf "bad duration %S" s)
  in
  let n = String.length s in
  if n >= 2 && String.equal (String.sub s (n - 2) 2) "ms" then
    Result.map (fun v -> v /. 1000.) (num_of (String.sub s 0 (n - 2)))
  else if n >= 1 && Char.equal s.[n - 1] 's' then num_of (String.sub s 0 (n - 1))
  else num_of s

let probability_of_string key s =
  match float_of_string_opt s with
  | Some p when Fl.(p >= 0. && p <= 1.) -> Ok p
  | _ -> Error (Printf.sprintf "%s expects a probability in [0,1], got %S" key s)

let int_after prefix s =
  let pn = String.length prefix and n = String.length s in
  if n > pn && String.equal (String.sub s 0 pn) prefix then
    match int_of_string_opt (String.sub s pn (n - pn)) with
    | Some v when v >= 0 -> Some v
    | _ -> None
  else None

let split1 ch s =
  match String.index_opt s ch with
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

let ( let* ) = Result.bind

let parse_clause plan clause =
  match split1 '=' clause with
  | None -> Error (Printf.sprintf "clause %S is not key=value" clause)
  | Some (key, value) -> (
    match key with
    | "drop" ->
      let* p = probability_of_string key value in
      Ok { plan with drop = p }
    | "corrupt" ->
      let* p = probability_of_string key value in
      Ok { plan with corrupt = p }
    | "reply_loss" ->
      let* p = probability_of_string key value in
      Ok { plan with reply_loss = p }
    | "stall" -> (
      match split1 '@' value with
      | None ->
        let* d = duration_of_string value in
        Ok { plan with stall = d; stall_peer = None }
      | Some (dur, target) -> (
        let* d = duration_of_string dur in
        match int_after "p" target with
        | Some peer -> Ok { plan with stall = d; stall_peer = Some peer }
        | None -> Error (Printf.sprintf "stall target %S: expected pN" target)))
    | "disconnect" -> (
      match split1 '@' value with
      | Some (who, when_) -> (
        match (int_after "peer" who, int_after "msg" when_) with
        | Some peer, Some op -> Ok { plan with disconnect = Some (peer, op) }
        | _ -> Error (Printf.sprintf "disconnect expects peerN@msgM, got %S" value))
      | None -> Error (Printf.sprintf "disconnect expects peerN@msgM, got %S" value))
    | "source_blackout" -> (
      match split1 '@' value with
      | Some (span, at) -> (
        match int_after "q" at with
        | Some q -> (
          match int_of_string_opt span with
          | Some count when count >= 0 ->
            Ok { plan with blackout = Some (Query_window { at = q; count }) }
          | _ -> Error (Printf.sprintf "source_blackout N@qJ needs integer N, got %S" span))
        | None ->
          if String.length at > 1 && Char.equal at.[0] 't' then
            let* dur = duration_of_string span in
            let* start = duration_of_string (String.sub at 1 (String.length at - 1)) in
            Ok { plan with blackout = Some (Time_window { at = start; dur }) }
          else Error (Printf.sprintf "source_blackout target %S: expected tT or qJ" at))
      | None -> Error (Printf.sprintf "source_blackout expects DUR@tT or N@qJ, got %S" value))
    | _ -> Error (Printf.sprintf "unknown fault clause %S" key))

let parse spec =
  if String.equal (String.trim spec) "" then Ok none
  else
    List.fold_left
      (fun acc clause ->
        let* plan = acc in
        parse_clause plan (String.trim clause))
      (Ok none)
      (String.split_on_char ',' spec)

let parse_seeded s =
  match split1 ':' s with
  | None -> Error "expected SEED:SPEC (e.g. 7:drop=0.01,corrupt=0.001)"
  | Some (seed, spec) -> (
    match Int64.of_string_opt seed with
    | None -> Error (Printf.sprintf "bad chaos seed %S" seed)
    | Some seed ->
      let* plan = parse spec in
      Ok (seed, plan))

(* ------------------------------------------------------------------ *)
(* The per-process injector                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  plan : plan;
  peer : int;
  link_rng : Prng.t;
  source_rng : Prng.t;
  mutable ops : int;  (** outbound operations: protocol sends + source requests *)
  mutable queries : int;
  mutable tripped : bool;  (** the [disconnect] clause has fired, not yet consumed *)
}

(* Every peer draws its fault schedule from its own stream of the chaos
   seed, so schedules do not depend on scheduling order across processes.
   Two sub-splits keep link decisions and source decisions independent of
   each other. *)
let make ~seed ~peer plan =
  let base = Prng.for_peer seed peer in
  let link_rng = Prng.split base in
  let source_rng = Prng.split base in
  { plan; peer; link_rng; source_rng; ops = 0; queries = 0; tripped = false }

let bernoulli rng p = Fl.(p > 0. && Prng.float rng 1.0 < p)

let max_pre_drops = 16

(* The op counter steps by one, so the clause trips exactly once: when the
   M-th op completes ([@msg0] trips on the first op, like [@msg1]). *)
let check_disconnect t =
  match t.plan.disconnect with
  | Some (peer, op) when Int.equal peer t.peer && Int.equal t.ops (max op 1) ->
    t.tripped <- true
  | _ -> ()

type link_action = { stall : float; pre_drops : int; corrupt_first : bool }

let on_send t =
  t.ops <- t.ops + 1;
  check_disconnect t;
  let stall =
    if Fl.(t.plan.stall > 0.) then
      match t.plan.stall_peer with
      | Some p when not (Int.equal p t.peer) -> 0.
      | _ -> t.plan.stall
    else 0.
  in
  let corrupt_first = Fl.(t.plan.corrupt > 0.) && bernoulli t.link_rng t.plan.corrupt in
  let pre_drops =
    if Fl.(t.plan.drop > 0.) then begin
      let d = ref 0 in
      while !d < max_pre_drops && bernoulli t.link_rng t.plan.drop do
        incr d
      done;
      !d
    end
    else 0
  in
  { stall; pre_drops; corrupt_first }

type source_action = { refuse : bool; drop_link : bool; lose_reply : bool }

let on_source_request t ~elapsed =
  t.ops <- t.ops + 1;
  let qidx = t.queries in
  t.queries <- t.queries + 1;
  check_disconnect t;
  let drop_link = t.tripped in
  if drop_link then t.tripped <- false;
  let refuse =
    match t.plan.blackout with
    | Some (Time_window { at; dur }) -> Fl.(elapsed >= at && elapsed < at +. dur)
    | Some (Query_window { at; count }) -> qidx >= at && qidx < at + count
    | None -> false
  in
  let lose_reply = Fl.(t.plan.reply_loss > 0.) && bernoulli t.source_rng t.plan.reply_loss in
  { refuse; drop_link; lose_reply }

let in_blackout t ~elapsed =
  match t.plan.blackout with
  | Some (Time_window { at; dur }) -> Fl.(elapsed >= at && elapsed < at +. dur)
  | _ -> false
