open Cmdliner
module Registry = Dr_core.Registry
module Latency = Dr_adversary.Latency
module Crash_plan = Dr_adversary.Crash_plan
module Fault = Dr_adversary.Fault
module Prng = Dr_engine.Prng

let protocol_doc =
  Printf.sprintf "Protocol: one of %s." (String.concat ", " Registry.names)

let protocol_arg ?(extra = "") ~default () =
  let doc = if String.equal extra "" then protocol_doc else protocol_doc ^ " " ^ extra in
  Arg.(value & opt string default & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let protocol_opt_arg ?(extra = "") () =
  let doc = if String.equal extra "" then protocol_doc else protocol_doc ^ " " ^ extra in
  Arg.(value & opt (some string) None & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let attack_doc =
  "Byzantine attack name from the protocol's registry catalog \
   (default, silent, flip, equivocate, collude, nearmiss, lie, flood); \
   protocols without an attack surface ignore it."

let attack_arg =
  Arg.(value & opt string "default" & info [ "attack" ] ~docv:"ATTACK" ~doc:attack_doc)

let seed_arg = Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let resolve_protocol name =
  match Registry.find name with
  | Some e -> e
  | None ->
    failwith
      (Printf.sprintf "unknown protocol %S (known: %s)" name (String.concat ", " Registry.names))

let latency_doc = "Latency policy: unit, jitter, rush (Byzantine messages fast), or sized."

let latency_arg ~default =
  Arg.(value & opt string default & info [ "latency" ] ~docv:"POLICY" ~doc:latency_doc)

let latency_fn = function
  | "unit" -> Ok (fun ~seed:_ ~fault:_ ~b:_ -> Latency.unit_delay)
  | "jitter" -> Ok (fun ~seed ~fault:_ ~b:_ -> Latency.jittered (Prng.create seed))
  | "rush" ->
    Ok (fun ~seed:_ ~fault ~b:_ -> Latency.rushing ~fast:(Fault.is_faulty fault) ~eps:0.01)
  | "sized" ->
    Ok (fun ~seed:_ ~fault:_ ~b -> Latency.size_proportional ~per_bit:(1. /. float b) ~floor:0.1)
  | other -> Error ("unknown latency policy: " ^ other)

let chaos_doc =
  "With --transport net: a seeded fault schedule SEED:SPEC, where SPEC is \
   comma-separated clauses drop=P, corrupt=P, stall=DUR@pI, disconnect=peerI@msgJ, \
   reply_loss=P, source_blackout=N@qJ (or DUR@tT). The same SEED:SPEC reproduces \
   the identical fault schedule; faults are masked by the runtime and never \
   change the verdict or Q."

let chaos_arg =
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SEED:SPEC" ~doc:chaos_doc)

let net_retries_arg =
  Arg.(value & opt (some int) None
       & info [ "net-retries" ] ~docv:"N"
           ~doc:"With --transport net: reconnect attempts per source request before the \
                 peer gives up as source-unreachable (default 8).")

let request_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "request-timeout" ] ~docv:"SECONDS"
           ~doc:"With --transport net: per-attempt deadline on each source request \
                 (default 5; 0 = none).")

let crash_arg ~applies =
  let doc = "Crash plan: none, silent, midcast:J, staggered, or afterq:J. " ^ applies in
  Arg.(value & opt (some string) None & info [ "crash" ] ~docv:"PLAN" ~doc)

let crash_plan spec =
  let counted j plan =
    match int_of_string_opt j with
    | Some j -> Ok (fun ~fault -> plan fault j)
    | None -> Error (Printf.sprintf "crash plan %s: %S is not an integer" spec j)
  in
  match String.split_on_char ':' spec with
  | [ "none" ] -> Ok (fun ~fault:_ -> Crash_plan.none)
  | [ "silent" ] -> Ok (fun ~fault -> Crash_plan.mid_broadcast fault ~after_sends:0)
  | [ "staggered" ] -> Ok (fun ~fault -> Crash_plan.staggered fault ~first:0.5 ~gap:2.0)
  | [ "midcast"; j ] -> counted j (fun fault j -> Crash_plan.mid_broadcast fault ~after_sends:j)
  | [ "afterq"; j ] -> counted j Crash_plan.after_queries
  | _ -> Error ("unknown crash plan: " ^ spec)
