module Prng = Dr_engine.Prng
module Metrics = Dr_engine.Metrics
module Sim = Dr_engine.Sim
module Transport = Dr_core.Transport

exception Crashed
exception Link_lost

(* A simple blocking queue: receiver threads push raw frames, the protocol
   thread pops them in [receive]. *)
module Bqueue = struct
  type 'a t = { q : 'a Queue.t; m : Mutex.t; c : Condition.t }

  let create () = { q = Queue.create (); m = Mutex.create (); c = Condition.create () }

  let push t v =
    Mutex.lock t.m;
    Queue.push v t.q;
    Condition.signal t.c;
    Mutex.unlock t.m

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q do
      Condition.wait t.c t.m
    done;
    let v = Queue.pop t.q in
    Mutex.unlock t.m;
    v

  let try_pop t =
    Mutex.lock t.m;
    let v = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Mutex.unlock t.m;
    v
end

type inbox_item = Msg of int * bytes | Link_down of int

type counters = {
  mutable retrans : int;  (** injected-fault retransmissions on peer links *)
  mutable corrupt_rx : int;  (** frames discarded by CRC on receive *)
}

type env = {
  me : int;
  k : int;
  links : Unix.file_descr option array;
  inbox : inbox_item Bqueue.t;
  source : Source_client.t;
  prng : Prng.t;
  crash : Sim.crash_spec;
  chaos : Faultnet.t option;
  meter : Metrics.t;
  counters : counters;
  mutable links_down : int;  (** links whose receiver has exited; protocol thread only *)
}

let make_env ~me ~k ~links ~source ~prng ~crash ?chaos () =
  {
    me;
    k;
    links;
    inbox = Bqueue.create ();
    source;
    prng;
    crash;
    chaos;
    meter = Metrics.create k;
    counters = { retrans = 0; corrupt_rx = 0 };
    links_down = 0;
  }

let open_links env =
  Array.fold_left (fun n l -> if Option.is_some l then n + 1 else n) 0 env.links

(* Feed one peer link into the inbox until the remote end closes. Runs on
   its own thread; [Marshal] decoding happens on the protocol thread (in
   [receive]), keyed by the protocol's own message type. A frame whose CRC
   fails is counted and dropped — the stream stays in sync and the sender's
   fault layer retransmits — while a desynchronized or closed stream
   retires the link with a [Link_down] sentinel so blocked receivers can
   learn the topology shrank. *)
let receiver env ~src fd =
  let rec loop () =
    match Frame.recv_bytes fd with
    | payload ->
      Bqueue.push env.inbox (Msg (src, payload));
      loop ()
    | exception Frame.Corrupt _ ->
      env.counters.corrupt_rx <- env.counters.corrupt_rx + 1;
      loop ()
    | exception (End_of_file | Unix.Unix_error _ | Frame.Desync _) ->
      Bqueue.push env.inbox (Link_down src)
  in
  loop ()

let start_receivers env =
  Array.iteri
    (fun src link ->
      match link with
      | Some fd -> ignore (Thread.create (fun () -> receiver env ~src fd) ())
      | None -> ())
    env.links

(* Pacing between injected-fault retransmissions: fixed small backoff,
   doubling and capped — wall-clock only, never protocol-visible. *)
let retrans_delay attempt =
  let d = 0.0005 *. (2. ** float_of_int (min attempt 6)) in
  Thread.delay d

module Make (M : Transport.MSG) (E : sig
  val env : env
end) : Transport.S with type msg = M.t = struct
  type msg = M.t

  let e = E.env
  let me () = e.me
  let peer_count () = e.k

  let transmit fd payload =
    match e.chaos with
    | None -> Frame.send_bytes fd payload
    | Some c ->
      let a = Faultnet.on_send c in
      if Fl.(a.Faultnet.stall > 0.) then Thread.delay a.Faultnet.stall;
      for i = 0 to a.Faultnet.pre_drops - 1 do
        (* The attempt is dropped before reaching the wire; all the sender
           observes is the retransmission pause. *)
        e.counters.retrans <- e.counters.retrans + 1;
        retrans_delay i
      done;
      if a.Faultnet.corrupt_first then begin
        Frame.send_corrupted fd payload;
        e.counters.retrans <- e.counters.retrans + 1;
        retrans_delay 0
      end;
      Frame.send_bytes fd payload

  let send dst m =
    if Sim.send_forbidden e.crash ~sent:(Metrics.msgs_sent e.meter e.me) then raise Crashed;
    Metrics.on_send e.meter e.me ~count:1 ~size_bits:(M.size_bits m);
    match e.links.(dst) with
    | Some fd -> (
      (* A peer that already terminated may have closed its end; like the
         simulator, which drops deliveries to finished peers, treat that as
         a successful (lost) send. *)
      try transmit fd (Marshal.to_bytes m [])
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ())
    | None -> invalid_arg "Net_transport.send: bad destination"

  let broadcast m =
    for dst = 0 to e.k - 1 do
      if dst <> e.me then send dst m
    done

  let receive () =
    let rec next () =
      if e.links_down >= open_links e then
        (* Every receiver thread has exited, so nothing can be pushed
           anymore: drain what is left, then report the partition. *)
        match Bqueue.try_pop e.inbox with
        | Some (Msg (src, payload)) -> (src, payload)
        | Some (Link_down _) | None -> raise Link_lost
      else
        match Bqueue.pop e.inbox with
        | Msg (src, payload) -> (src, payload)
        | Link_down _ ->
          e.links_down <- e.links_down + 1;
          next ()
    in
    let src, payload = next () in
    (src, (Marshal.from_bytes payload 0 : M.t))

  let await ~ready ~on =
    while not (ready ()) do
      let src, m = receive () in
      on src m
    done

  (* The only source read ([query] is its one-bit case): it requests only
     the bits the crash rule grants, and a [len = 0] range issues no
     request, like an empty loop. *)
  let query_range ~pos ~len =
    let queried = Metrics.queries e.meter e.me in
    let granted = Sim.queries_granted e.crash ~queried ~len in
    let bits =
      if granted = 0 then Dr_source.Bitarray.create 0
      else Source_client.query_range e.source ~pos ~len:granted
    in
    Metrics.on_query e.meter e.me ~bits:granted;
    if Sim.crashes_after_queries e.crash ~queried ~granted then raise Crashed;
    bits

  let query i = Dr_source.Bitarray.get (query_range ~pos:i ~len:1) 0

  let rng () = e.prng
  let die () = raise Sim.Halted
end
