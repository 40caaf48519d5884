(** Deterministic network fault injection for the socket runtime.

    A {!plan} is a seeded schedule of infrastructure faults — dropped or
    corrupted link transmissions, per-send stalls, a forced source-link
    disconnect, lost source replies, a source blackout window — parsed from
    the compact spec grammar of [dr_download --chaos SEED:SPEC]:

    {v
    drop=P                 P(peer-link send attempt is dropped and must be
                           retransmitted), per attempt
    corrupt=P              P(a send first transmits a copy with a flipped
                           payload bit; the receiver discards it by CRC)
    stall=DUR[@pN]         sleep DUR before every send (of peer N only,
                           with @pN); DUR = 50ms | 2s | 1.5
    disconnect=peerN@msgM  peer N's source connection is torn down when its
                           M-th outbound operation (sends + source requests)
                           completes, once; the client must reconnect
    reply_loss=P           P(a source reply is delivered but lost by the
                           client, forcing a same-sequence retry that the
                           server must answer from its replay cache)
    source_blackout=N@qJ   source requests J..J+N-1 (0-based, per peer) are
                           refused before reaching the wire; a range read
                           is one request, however many bits it charges
    source_blackout=D@tT   requests issued in the wall-clock window
                           [T, T+D) from peer start are refused
    v}

    Every PRNG-based decision is drawn from a dedicated split of the chaos
    seed — the (peer+1)-th split of the master, mirroring the runner's
    per-peer protocol streams — keyed only on the peer id and the operation
    index. A given [SEED:SPEC] therefore reproduces the identical fault
    schedule on every run, independently of scheduling; only the [@tT]
    blackout form consults the wall clock (documented above), and it never
    changes a verdict because refused requests are retried until the window
    passes.

    Faults are injected {e below} the reliability the protocols assume:
    dropped and corrupted transmissions are retransmitted by the sender,
    lost replies are re-requested under the same sequence number, so honest
    peers still terminate with the right output and the paper's Q meter is
    charged exactly once per logical query — chaos may slow a run, never
    change its verdict. *)

type blackout =
  | Time_window of { at : float; dur : float }
  | Query_window of { at : int; count : int }

type plan = {
  drop : float;
  corrupt : float;
  stall : float;
  stall_peer : int option;
  disconnect : (int * int) option;  (** (peer, outbound-op index) *)
  reply_loss : float;
  blackout : blackout option;
}

val is_none : plan -> bool
(** No clause is active: the plan of an empty spec. *)

val parse_seeded : string -> (int64 * plan, string) result
(** Parse the [SEED:SPEC] argument form of [--chaos]: a seed, then a
    comma-separated clause list ([""] injects nothing). Durations must be
    finite. *)

(** {1 The per-process injector} *)

type t

val make : seed:int64 -> peer:int -> plan -> t
(** One injector per peer process, drawing from the (peer+1)-th split of
    the chaos master. *)

type link_action = {
  stall : float;  (** sleep this long before transmitting *)
  pre_drops : int;  (** failed (dropped) transmissions before the real one *)
  corrupt_first : bool;  (** first transmit a corrupted copy *)
}

val on_send : t -> link_action
(** Decision for the next protocol send (advances the op counter). *)

type source_action = {
  refuse : bool;  (** blackout: fail the attempt before touching the wire *)
  drop_link : bool;  (** injected disconnect: tear the connection down first *)
  lose_reply : bool;  (** read the server's reply, then discard it *)
}

val on_source_request : t -> elapsed:float -> source_action
(** Decision for the next logical source request — one whole
    [Query_range], one bit or many (advances the op and request counters).
    [elapsed] is seconds since peer start, used only by the [@tT] blackout
    form. *)

val in_blackout : t -> elapsed:float -> bool
(** Is the wall-clock blackout window active? (Used to keep {e retries} of
    a refused request failing until the window passes.) *)
