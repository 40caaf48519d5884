(** Shared cmdliner vocabulary of the Download CLIs.

    [dr_download], [dr_sweep] and [dr_check] take the same
    [--protocol]/[--attack]/[--seed] flags and the same latency/crash-plan
    spec strings; this module is their single definition, resolved against
    {!Dr_core.Registry} so the help text and the error messages always list
    the live protocol set. *)

val protocol_arg : ?extra:string -> default:string -> unit -> string Cmdliner.Term.t
(** [-p]/[--protocol] with a default name. [extra] appends to the doc line
    (e.g. "or 'auto'."). *)

val protocol_opt_arg : ?extra:string -> unit -> string option Cmdliner.Term.t
(** [-p]/[--protocol] without a default (absent = caller's choice, e.g.
    "all protocols"). *)

val attack_arg : string Cmdliner.Term.t
(** [--attack], default ["default"]. Validated by the registry entry's
    runner, not here. *)

val seed_arg : int64 Cmdliner.Term.t
(** [--seed], default [1L]. *)

val resolve_protocol : string -> Dr_core.Registry.entry
(** {!Dr_core.Registry.find}, raising [Failure] with the known-name list on
    a miss. *)

val latency_arg : default:string -> string Cmdliner.Term.t

val latency_fn :
  string ->
  (seed:int64 -> fault:Dr_adversary.Fault.t -> b:int -> Dr_adversary.Latency.fn, string) result
(** Parse a [--latency] policy: "unit", "jitter" (seeded), "rush" (Byzantine
    messages arrive first), "sized" (transmission-time proportional under the
    message bound [b]). [Ok] builds it per instance; [Error] on anything else. *)

val chaos_arg : string option Cmdliner.Term.t
(** [--chaos SEED:SPEC], the {!Dr_net.Faultnet} fault-schedule grammar.
    Parsed by the caller (via [Faultnet.parse_seeded]) so this module stays
    free of a net dependency. *)

val net_retries_arg : int option Cmdliner.Term.t
(** [--net-retries], overriding [Source_client.default_config.max_retries]. *)

val request_timeout_arg : float option Cmdliner.Term.t
(** [--request-timeout], overriding
    [Source_client.default_config.request_timeout]. *)

val crash_arg : default:string -> string Cmdliner.Term.t

val crash_plan : string -> (fault:Dr_adversary.Fault.t -> Dr_adversary.Crash_plan.t, string) result
(** Parse a [--crash] plan: "none", "silent", "midcast:J", "staggered",
    "afterq:J". [Ok] builds it per fault set; [Error] on anything else. *)
