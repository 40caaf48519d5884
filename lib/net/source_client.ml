module Prng = Dr_engine.Prng

exception Unreachable of string

type config = { request_timeout : float; max_retries : int }

let default_config = { request_timeout = 5.0; max_retries = 8 }

type t = {
  host : string;
  port : int;
  peer : int;
  cfg : config;
  rng : Prng.t;  (** backoff jitter only — never protocol-visible *)
  chaos : Faultnet.t option;
  started : float;
  mutable fd : Unix.file_descr option;
  mutable seq : int;
  mutable reconnects : int;
}

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> addr
    | _ -> failwith ("cannot resolve host: " ^ host))

let elapsed t = Unix.gettimeofday () -. t.started

(* Capped exponential backoff, 0.05 s doubling up to 1 s, with
   multiplicative jitter in [0.5, 1.0): retries spread out instead of
   thundering back in lockstep. *)
let backoff t attempt =
  let d = Float.min (0.05 *. (2. ** float_of_int attempt)) 1.0 in
  let d = d *. (0.5 +. Prng.float t.rng 0.5) in
  if d > 0. then Thread.delay d

let drop_connection t =
  match t.fd with
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let dial t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (resolve t.host, t.port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    if t.cfg.request_timeout > 0. then
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.request_timeout;
    Frame.send_value fd (Source_proto.Hello t.peer)
  with
  | () -> t.fd <- Some fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let ensure_connected t =
  match t.fd with
  | Some fd -> fd
  | None ->
    dial t;
    t.reconnects <- t.reconnects + 1;
    Option.get t.fd

let describe_exn = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> "request timed out"
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | End_of_file -> "connection closed by server"
  | Frame.Corrupt m -> "corrupt frame: " ^ m
  | Frame.Desync m -> "desynchronized stream: " ^ m
  | e -> Printexc.to_string e

(* Run one request to completion: attempt, and on any transport-level
   failure tear the connection down, back off and retry — up to
   [max_retries] reconnects, then {!Unreachable}. [attempt] receives the
   0-based attempt index (chaos decisions may key on it). Semantic errors
   (an [Err] response, a protocol violation) raise [Failure] and are never
   retried. *)
let with_retries t ~what (attempt : int -> Unix.file_descr -> 'a) : 'a =
  let rec go n =
    match attempt n (ensure_connected t) with
    | v -> v
    | exception
        ((Unix.Unix_error _ | End_of_file | Frame.Corrupt _ | Frame.Desync _) as e) ->
      drop_connection t;
      if n >= t.cfg.max_retries then
        raise
          (Unreachable
             (Printf.sprintf "source %s:%d unreachable: %s failed after %d attempt(s): %s"
                t.host t.port what (n + 1) (describe_exn e)))
      else begin
        backoff t n;
        go (n + 1)
      end
  in
  go 0

let simulated_failure what = Unix.Unix_error (Unix.ECONNRESET, "faultnet", what)

let connect ?(host = "127.0.0.1") ~port ~peer ?(cfg = default_config) ?chaos () =
  let t =
    {
      host;
      port;
      peer;
      cfg;
      rng = Prng.create (Int64.of_int ((peer + 2) * 7919));
      chaos;
      started = Unix.gettimeofday ();
      fd = None;
      seq = 0;
      reconnects = 0;
    }
  in
  (* Eager first dial so an unreachable source is a clean, early, typed
     failure rather than a mid-protocol surprise. *)
  ignore (with_retries t ~what:"connect" (fun _ fd -> fd));
  t.reconnects <- 0;
  t

(* One logical request: a fresh [seq], the chaos decision for it, then
   attempts under that one [seq] until a response arrives. An [Err]
   response raises [Failure]. *)
let query_range t ~pos ~len =
  t.seq <- t.seq + 1;
  let seq = t.seq in
  let action =
    match t.chaos with
    | Some c -> Faultnet.on_source_request c ~elapsed:(elapsed t)
    | None -> { Faultnet.refuse = false; drop_link = false; lose_reply = false }
  in
  if action.Faultnet.drop_link then drop_connection t;
  let lose_reply = ref action.Faultnet.lose_reply in
  let what = Printf.sprintf "Query_range(%d, %d)" pos len in
  with_retries t ~what (fun attempt fd ->
      let refused =
        match t.chaos with
        | None -> false
        | Some c ->
          (Int.equal attempt 0 && action.Faultnet.refuse)
          || Faultnet.in_blackout c ~elapsed:(elapsed t)
      in
      if refused then raise (simulated_failure "source blackout");
      Frame.send_value fd (Source_proto.Query_range { seq; pos; len });
      let resp : Source_proto.response = Frame.recv_value fd in
      if !lose_reply then begin
        (* The reply arrived and the server has charged (and cached) this
           seq; the client loses it anyway. The retry must come back with
           the same seq and be answered from the replay cache. *)
        lose_reply := false;
        raise (simulated_failure "injected reply loss")
      end;
      match resp with
      | Source_proto.Bits b when Int.equal (Dr_source.Bitarray.length b) len -> b
      | Source_proto.Err e -> failwith ("source: " ^ e)
      | _ -> failwith "source: protocol violation (expected Bits of the range's length)")

let query t i = Dr_source.Bitarray.get (query_range t ~pos:i ~len:1) 0

(* Unsequenced idempotent requests (control plane): same retry discipline,
   no replay-cache interaction. *)
let rpc t ~what (req : Source_proto.request) : Source_proto.response =
  with_retries t ~what (fun _ fd ->
      Frame.send_value fd req;
      (Frame.recv_value fd : Source_proto.response))

let stats t =
  match rpc t ~what:"Stats" Source_proto.Stats with
  | Source_proto.Stats_reply { per_peer; total; replays } -> (per_peer, total, replays)
  | Source_proto.Err e -> failwith ("source: " ^ e)
  | _ -> failwith "source: protocol violation (expected Stats_reply)"

let shutdown t =
  match
    (let fd = ensure_connected t in
     Frame.send_value fd Source_proto.Shutdown;
     (Frame.recv_value fd : Source_proto.response))
  with
  | Source_proto.Bye -> ()
  | exception (End_of_file | Unix.Unix_error _) -> ()
  | _ -> failwith "source: protocol violation (expected Bye)"

let reconnects t = t.reconnects

let close t = drop_connection t
