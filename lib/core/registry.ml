type entry = {
  model : Problem.fault_model;
  beta_sup : float;
  spec : Spec.bounds;
  attacks : string list;
  run :
    ?opts:Exec.opts ->
    ?attack:string ->
    ?segments:int ->
    ?rho:int ->
    Problem.instance ->
    Problem.report;
  core :
    ?attack:string ->
    ?segments:int ->
    ?rho:int ->
    Problem.instance ->
    (module Transport.CORE);
}

exception Unknown_attack of { protocol : string; attack : string; known : string list }

let attack_error ~protocol ~attack ~known =
  Printf.sprintf "unknown attack %S for %s (known: %s)" attack protocol
    (String.concat ", " known)

let () =
  Printexc.register_printer (function
    | Unknown_attack { protocol; attack; known } ->
      Some (attack_error ~protocol ~attack ~known)
    | _ -> None)

let committee_attacks = [ "equivocate"; "silent"; "flip"; "collude" ]
let cycle_attacks = [ "nearmiss"; "silent"; "lie"; "equivocate"; "flood"; "adaptive"; "splitcast" ]

let unknown ~protocol ~known attack =
  raise (Unknown_attack { protocol; attack; known = "default" :: known })

(* One parser per Byzantine attack vocabulary, used by the entry's [core]
   constructor (and so by the [run] derived from it). An out-of-catalog name
   raises {!Unknown_attack} — a structured error the CLIs turn into a clean
   usage message — never a bare [Failure]. *)
let committee_attack = function
  | "default" | "equivocate" -> Committee.Equivocate
  | "silent" -> Committee.Honest_but_silent
  | "flip" -> Committee.Flip
  | "collude" -> Committee.Collude
  | other -> unknown ~protocol:"byz-committee" ~known:committee_attacks other

let cycle_attack ~protocol ~t = function
  | "default" | "nearmiss" -> Byz_2cycle.Near_miss
  | "silent" -> Byz_2cycle.Silent
  | "lie" -> Byz_2cycle.Consistent_lie
  | "equivocate" -> Byz_2cycle.Equivocate
  | "flood" -> Byz_2cycle.Flood (max 1 t)
  | "adaptive" -> Byz_2cycle.Adaptive Dr_adversary.Adaptive.Echo_corrupt
  | "splitcast" -> Byz_2cycle.Adaptive Dr_adversary.Adaptive.Split_brain
  | other -> unknown ~protocol ~known:cycle_attacks other

(* The one entry constructor: [run] is always [core] executed on the
   simulator, so the two faces cannot drift. *)
let entry ~model ~beta_sup ~spec ~attacks core =
  {
    model;
    beta_sup;
    spec;
    attacks;
    run =
      (fun ?opts ?attack ?segments ?rho inst ->
        Exec.run_core ?opts (core ?attack ?segments ?rho inst) inst);
    core;
  }

(* Protocols without an attack surface accept (and ignore) any attack name,
   matching the CLI's historical behavior of only routing --attack to the
   Byzantine protocols. *)
let plain core ~model ~beta_sup ~spec =
  entry ~model ~beta_sup ~spec ~attacks:[ "default" ]
    (fun ?attack:_ ?segments:_ ?rho:_ _inst -> core ())

let all =
  [
    plain Naive.core ~model:Problem.Crash ~beta_sup:1. ~spec:Spec.naive;
    plain Balanced.core ~model:Problem.Crash ~beta_sup:0. ~spec:Spec.balanced;
    plain Crash_single.core ~model:Problem.Crash ~beta_sup:0. ~spec:Spec.crash_single;
    plain
      (fun () -> Crash_general.core ())
      ~model:Problem.Crash ~beta_sup:1. ~spec:Spec.crash_general;
    entry ~model:Problem.Byzantine ~beta_sup:0.5 ~spec:Spec.committee ~attacks:committee_attacks
      (fun ?(attack = "default") ?segments:_ ?rho:_ _inst ->
        Committee.core ~attack:(committee_attack attack) ());
    entry ~model:Problem.Byzantine ~beta_sup:0.5 ~spec:Spec.byz_2cycle ~attacks:cycle_attacks
      (fun ?(attack = "default") ?segments ?rho inst ->
        let attack = cycle_attack ~protocol:"byz-2cycle" ~t:(Problem.t inst) attack in
        Byz_2cycle.core ~attack ?segments ?rho ());
    entry ~model:Problem.Byzantine ~beta_sup:0.5 ~spec:Spec.byz_multicycle ~attacks:cycle_attacks
      (fun ?(attack = "default") ?segments ?rho inst ->
        let attack = cycle_attack ~protocol:"byz-multicycle" ~t:(Problem.t inst) attack in
        Byz_multicycle.core ~attack ?segments ?rho ());
  ]

let name e = e.spec.Spec.protocol

let attacks e = e.attacks

let find n = List.find_opt (fun e -> String.equal (name e) n) all
let find_exn n =
  match find n with Some e -> e | None -> failwith ("unknown protocol: " ^ n)

let validate_attack e attack =
  match e.attacks with
  | [ "default" ] -> Ok () (* no attack surface: any name is accepted and ignored *)
  | known ->
    if String.equal attack "default" || List.exists (String.equal attack) known then Ok ()
    else Error (attack_error ~protocol:(name e) ~attack ~known:("default" :: known))

let admits e inst =
  let (module C : Transport.CORE) = e.core inst in
  C.supports inst

let names = List.map name all
let spec_of n = Option.map (fun e -> e.spec) (find n)
