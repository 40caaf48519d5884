type entry = {
  model : Problem.fault_model;
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

(* One list per Byzantine attack vocabulary, each name once with the strategy
   it stands for; ["default"] is the first name. The catalog, the parser and
   {!validate_attack} all read these lists. A cycle strategy is built from
   the instance's t (flood sends [max 1 t] groups). *)
let committee_attacks =
  Committee.
    [ ("equivocate", Equivocate); ("silent", Honest_but_silent); ("flip", Flip); ("collude", Collude) ]

let cycle_attacks =
  Byz_2cycle.
    [
      ("nearmiss", fun _ -> Near_miss);
      ("silent", fun _ -> Silent);
      ("lie", fun _ -> Consistent_lie);
      ("equivocate", fun _ -> Equivocate);
      ("flood", fun t -> Flood (max 1 t));
      ("adaptive", fun _ -> Adaptive Dr_adversary.Adaptive.Echo_corrupt);
      ("splitcast", fun _ -> Adaptive Dr_adversary.Adaptive.Split_brain);
    ]

(* An out-of-catalog name raises {!Unknown_attack} — a structured error the
   CLIs turn into a clean usage message — never a bare [Failure]. *)
let parse_attack ~protocol vocab attack =
  let wanted =
    match vocab with (first, _) :: _ when String.equal attack "default" -> first | _ -> attack
  in
  match List.find_opt (fun (n, _) -> String.equal n wanted) vocab with
  | Some (_, strategy) -> strategy
  | None -> raise (Unknown_attack { protocol; attack; known = "default" :: List.map fst vocab })

(* The one entry constructor: [run] is always [core] executed on the
   simulator, so the two faces cannot drift. *)
let entry ~model ~spec ~attacks core =
  let run ?opts ?attack ?segments ?rho inst =
    Exec.run_core ?opts (core ?attack ?segments ?rho inst) inst
  in
  { model; spec; attacks; run; core }

(* The crash-model protocols have no attack surface: they accept (and
   ignore) any attack name, as the CLI has always done. *)
let plain core ~spec =
  entry ~model:Problem.Crash ~spec ~attacks:[ "default" ] (fun ?attack:_ ?segments:_ ?rho:_ _ ->
      core ())

let byzantine vocab ~spec core =
  entry ~model:Problem.Byzantine ~spec ~attacks:(List.map fst vocab)
    (fun ?(attack = "default") ?segments ?rho inst ->
      core (parse_attack ~protocol:spec.Spec.protocol vocab attack) ~segments ~rho inst)

let all =
  [
    plain Naive.core ~spec:Spec.naive;
    plain Balanced.core ~spec:Spec.balanced;
    plain Crash_single.core ~spec:Spec.crash_single;
    plain Crash_general.core ~spec:Spec.crash_general;
    byzantine committee_attacks ~spec:Spec.committee (fun attack ~segments:_ ~rho:_ _inst ->
        Committee.core ~attack ());
    byzantine cycle_attacks ~spec:Spec.byz_2cycle (fun attack ~segments ~rho inst ->
        Byz_2cycle.core ~attack:(attack (Problem.t inst)) ?segments ?rho ());
    byzantine cycle_attacks ~spec:Spec.byz_multicycle (fun attack ~segments ~rho inst ->
        Byz_multicycle.core ~attack:(attack (Problem.t inst)) ?segments ?rho ());
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
  let k = inst.Problem.k and t = Problem.t inst in
  if e.spec.Spec.resilience ~k ~t then Ok ()
  else
    Error
      (Printf.sprintf "%s: k=%d t=%d is outside its regime (%s)" (name e) k t e.spec.Spec.theorem)

let names = List.map name all
let spec_of n = Option.map (fun e -> e.spec) (find n)
