(** The protocol registry: one entry per Download protocol.

    Single source of truth for the set of protocols in the library. Each
    entry bundles the protocol's transport-generic core constructor with its
    fault model, paper bounds ({!Spec.bounds}, whose [resilience] is the
    protocol's regime) and a simulator runner derived from the core; both
    parse the CLI attack vocabulary for the protocols that take an adversary
    strategy. Anything that needs "all protocols" — selection, CLIs, sweeps,
    the experiment harness, the spec tests — goes through this table; no
    other hand-maintained protocol list exists. *)

type entry = {
  model : Problem.fault_model;
      (** the fault model the protocol is designed against (the model a
          sweep should instantiate when running it) *)
  spec : Spec.bounds;
      (** the paper's bound record for this protocol; its [resilience] is
          the protocol's only statement of its regime (see {!admits}) *)
  attacks : string list;
      (** the entry's full attack-name catalog, every name accepted by [run]
          (["default"] excluded for the Byzantine entries — it aliases the
          first name). Protocols without an attack surface list just
          ["default"]. Test matrices and the [dr_check] campaign iterate this
          instead of keeping their own per-protocol lists. *)
  run :
    ?opts:Exec.opts ->
    ?attack:string ->
    ?segments:int ->
    ?rho:int ->
    Problem.instance ->
    Problem.report;
      (** run the protocol on the simulator: [Exec.run_core ?opts (core ?attack
          ?segments ?rho inst) inst]. [attack] is a name from [attacks] or
          ["default"] — protocols without an attack surface ignore it, the
          Byzantine ones raise {!Unknown_attack} on a name outside their
          catalog (validate first with {!validate_attack} for a [result]).
          [segments] and [rho] apply to the randomized protocols only. *)
  core :
    ?attack:string ->
    ?segments:int ->
    ?rho:int ->
    Problem.instance ->
    (module Transport.CORE);
      (** the transport-generic constructor, the entry's one protocol value:
          it packages the protocol core, with the attack and plan overrides
          baked in, for instantiation over any {!Transport.S} (the instance
          is consulted only to scale attack parameters such as the flood
          group count). [run] executes it on the simulator; transport-agnostic
          drivers ([dr_download --transport net], the conformance tests)
          instantiate it themselves. *)
}

exception
  Unknown_attack of { protocol : string; attack : string; known : string list }
(** Raised by the attack parsers (so by [run] / [core]) on a name outside the
    entry's catalog. [known] includes ["default"]. A printer is registered, so
    [Printexc.to_string] yields the same one-line message the CLIs print. *)

val validate_attack : entry -> string -> (unit, string) result
(** [validate_attack e a] is [Ok ()] iff [e.run ~attack:a] will not raise
    {!Unknown_attack}: entries without an attack surface (catalog
    [["default"]]) accept — and ignore — any name; the Byzantine entries
    accept ["default"] plus their catalog. The [Error] carries the same
    message the exception prints. CLIs call this up front to turn a typo into
    a clean usage error instead of a crash. *)

val all : entry list
(** Every protocol, baselines included, in presentation order. *)

val find : string -> entry option
(** Lookup by protocol name ({!name}). *)

val find_exn : string -> entry
(** @raise Failure on an unknown name. *)

val name : entry -> string
(** The protocol name: [spec.protocol], which is also the name the entry's
    core reports. *)

val attacks : entry -> string list
(** The [attacks] catalog field. *)

val admits : entry -> Problem.instance -> (unit, string) result
(** [Ok ()] iff [spec.resilience ~k ~t] holds for the instance; the [Error]
    names the theorem whose regime the instance is outside. The fault model
    is not consulted: an entry admits an instance of either model. *)

val names : string list

val spec_of : string -> Spec.bounds option
