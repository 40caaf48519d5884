exception Crashed
exception Halted

module type MESSAGE = sig
  type t

  val size_bits : t -> int
  val tag : t -> string
end

type crash_spec = Never | At_time of float | After_sends of int | After_queries of int

(* A range read stands for a loop of one-bit reads that checks
   [After_queries j] after each bit: the peer gets one bit if it is already
   at [j] queries, else the bits up to the one that reaches [j]. *)
let queries_granted spec ~queried ~len =
  match spec with
  | After_queries j when len > 0 -> Int.min len (Int.max 1 (j - queried))
  | Never | At_time _ | After_sends _ | After_queries _ -> len

let crashes_after_queries spec ~queried ~granted =
  match spec with
  | After_queries j -> granted > 0 && queried + granted >= j
  | Never | At_time _ | After_sends _ -> false

let send_forbidden spec ~sent =
  match spec with
  | After_sends j -> sent >= j
  | Never | At_time _ | After_queries _ -> false

type status = Completed | Deadlock of int list | Event_limit_reached

type arbiter = int -> int

type obs_kind = Obs_start | Obs_deliver | Obs_crash | Obs_query_reply | Obs_wake

type obs = { obs_kind : obs_kind; obs_peer : int; obs_tag : string; obs_step : int }

type config = {
  k : int;
  seed : int64;
  source : peer:int -> pos:int -> len:int -> Bytes.t -> unit;
  latency : src:int -> dst:int -> time:float -> size_bits:int -> float;
  link_rate : float;
  crash : int -> crash_spec;
  trace : Trace.t option;
  max_events : int;
  arbiter : arbiter option;
  observer : (obs -> unit) option;
}

(* Bit [r] of a range buffer is bit [r land 7] of byte [r lsr 3]: the
   [Bitarray] packing. *)
let bit_source query_bit ~peer ~pos ~len buf =
  for r = 0 to len - 1 do
    let q = r lsr 3 and mask = 1 lsl (r land 7) in
    let byte = Char.code (Bytes.get buf q) in
    let byte = if query_bit ~peer (pos + r) then byte lor mask else byte land lnot mask in
    Bytes.set buf q (Char.unsafe_chr byte)
  done

let default_config ~k ~query_bit =
  {
    k;
    seed = 1L;
    source = bit_source query_bit;
    latency = (fun ~src:_ ~dst:_ ~time:_ ~size_bits:_ -> 1.);
    link_rate = infinity;
    crash = (fun _ -> Never);
    trace = None;
    max_events = 200_000_000;
    arbiter = None;
    observer = None;
  }

type 'r outcome = {
  outputs : (float * 'r) option array;
  metrics : Metrics.t;
  status : status;
  end_time : float;
  events : int;
}

module Make (M : MESSAGE) = struct
  type _ Effect.t +=
    | E_send : int * M.t -> unit Effect.t
    | E_broadcast : M.t -> unit Effect.t
    | E_receive : (int * M.t) Effect.t
    | E_query_range : int * int * Bytes.t -> unit Effect.t
    | E_query : int -> bool Effect.t
    | E_now : float Effect.t
    | E_me : int Effect.t
    | E_k : int Effect.t
    | E_rng : Prng.t Effect.t

  let me () = Effect.perform E_me
  let peer_count () = Effect.perform E_k
  let now () = Effect.perform E_now
  let send dst msg = Effect.perform (E_send (dst, msg))

  let broadcast msg = Effect.perform (E_broadcast msg)

  let receive () = Effect.perform E_receive
  let query_range ~pos ~len buf = Effect.perform (E_query_range (pos, len, buf))

  let query i = Effect.perform (E_query i)

  let rng () = Effect.perform E_rng
  let die () = raise Halted

  type wait = Idle | On_receive of (int * M.t, unit) Effect.Deep.continuation

  type pstate = {
    id : int;
    mutable alive : bool;
    mutable finished : bool;
    mailbox : (int * M.t) Ring.t;
    mutable wait : wait;
    prng : Prng.t;
    scratch : Bytes.t;  (** the one byte a [query] reads into *)
    mutable query_at : int;  (** the bit the pending [query] asks for *)
  }

  (* A pending event is an int slot: packed code [codes.(s)] (kind in bits
     0-1, the peer it applies to in bits 2-31, a delivery's source from bit
     32) and, for a delivery, message [msgs.(s)]. Free slots chain from
     [free], each holding the distance to the next minus one, so the zeros
     a growth adds link up; past the end, [alloc] grows the pool. [msgs]
     grows only in [set_msg], seeded with the message stored: no dummy. *)
  type slots = { mutable codes : int array; mutable msgs : M.t array; mutable free : int }

  let start_code i = i lsl 2
  let deliver_code ~src ~dst = 1 lor (dst lsl 2) lor (src lsl 32)
  let crash_code i = 2 lor (i lsl 2)
  let code_peer code = (code lsr 2) land 0x3fff_ffff

  let grow_ints a n =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  let alloc slots code =
    if slots.free >= Array.length slots.codes then
      slots.codes <- grow_ints slots.codes (Int.max 16 (2 * Array.length slots.codes));
    let s = slots.free in
    slots.free <- s + 1 + Array.unsafe_get slots.codes s;
    Array.unsafe_set slots.codes s code;
    s

  (* Not [Array.make]: a large one with a young [msg] forces a minor GC. *)
  let set_msg slots s msg =
    let old = slots.msgs and n = Array.length slots.msgs in
    if s >= n then
      slots.msgs <- Array.init (Array.length slots.codes) (fun i -> if i < n then old.(i) else msg);
    Array.unsafe_set slots.msgs s msg

  let release slots s =
    Array.unsafe_set slots.codes s (slots.free - s - 1);
    slots.free <- s

  (* The arbiter's pending pool: a growable array holding slots in the
     order they were drained from the heap. Removal keeps the others'
     relative order, so the arbiter sees the same indices the committed
     repro scripts were recorded against. *)
  type pool = { choose : arbiter; mutable items : int array; mutable len : int }

  let drain heap pool ~time =
    while not (Heap.is_empty heap) do
      let ev = Heap.pop_min heap ~time in
      if pool.len = Array.length pool.items then
        pool.items <- grow_ints pool.items (max 16 (2 * pool.len));
      pool.items.(pool.len) <- ev;
      pool.len <- pool.len + 1
    done

  (* Remove the arbiter's pick (out-of-range falls back to 0), shifting the
     tail down one slot. *)
  let take pool =
    let count = pool.len in
    let idx = pool.choose count in
    let idx = if idx < 0 || idx >= count then 0 else idx in
    let ev = pool.items.(idx) in
    Array.blit pool.items (idx + 1) pool.items idx (count - idx - 1);
    pool.len <- count - 1;
    ev

  let run cfg proc =
    let master = Prng.create cfg.seed in
    let peers =
      Array.init cfg.k (fun id ->
          {
            id;
            alive = true;
            finished = false;
            mailbox = Ring.create ();
            wait = Idle;
            prng = Prng.split master;
            scratch = Bytes.make 1 '\000';
            query_at = 0;
          })
    in
    let heap = Heap.create () in
    let slots = { codes = [||]; msgs = [||]; free = 0 } in
    (* Store-and-forward link serialization: each ordered link transmits at
       [link_rate] bits per time unit, one message at a time, in FIFO order.
       [infinity] (the default) models unbounded bandwidth. *)
    let serialized = cfg.link_rate <> infinity in
    let link_free : (int * int, float) Hashtbl.t =
      if serialized then Hashtbl.create 64 else Hashtbl.create 1
    in
    let metrics = Metrics.create cfg.k in
    let outputs = Array.make cfg.k None in
    (* One-slot float arrays keep the clock and the time of the event being
       scheduled flat (a [float ref] would box on every store); [Heap]
       reads and writes times only through such cells. *)
    let clock = [| 0. |] and at = [| 0. |] in
    let events_done = ref 0 in
    (* Crash plans are fixed per peer; resolve the closure once instead of
       on every send/query. *)
    let crash_spec = Array.init cfg.k cfg.crash in
    (* Tracing must cost nothing when off: every call site is guarded by
       [trace_on] so the closure passed to [tr] is never even allocated. *)
    let trace_on = cfg.trace <> None in
    let tr f = match cfg.trace with None -> () | Some t -> Trace.record t (f ()) in
    (* Killing a peer: mark dead and unwind its blocked fiber if any. *)
    let kill p =
      if p.alive then begin
        p.alive <- false;
        if trace_on then tr (fun () -> Trace.Crashed { time = clock.(0); peer = p.id });
        match p.wait with
        | Idle -> ()
        | On_receive k ->
          p.wait <- Idle;
          Effect.Deep.discontinue k Crashed
      end
    in
    (* A peer crashing inside one of its own operations: it dies, and the
       operation unwinds its fiber. *)
    let crash_in p k =
      p.alive <- false;
      if trace_on then tr (fun () -> Trace.Crashed { time = clock.(0); peer = p.id });
      Effect.Deep.discontinue k Crashed
    in
    (* Read a range within the event that issued it: the only place a
       source query is charged. The [m] bits the crash rule grants are
       charged in one add and read in one [source] call; the trace still
       gets one record per bit. Returns whether [p] survives the read. *)
    let query_range_from p pos len buf =
      let spec = Array.unsafe_get crash_spec p.id in
      let queried = Metrics.queries metrics p.id in
      let m = queries_granted spec ~queried ~len in
      if m > 0 then begin
        Metrics.on_query metrics p.id ~bits:m;
        cfg.source ~peer:p.id ~pos ~len:m buf
      end;
      if trace_on then
        for r = 0 to m - 1 do
          let value = Char.code (Bytes.get buf (r lsr 3)) land (1 lsl (r land 7)) <> 0 in
          tr (fun () -> Trace.Queried { time = clock.(0); peer = p.id; index = pos + r; value })
        done;
      not (crashes_after_queries spec ~queried ~granted:m)
    in
    (* One send from [p] to [dst]: the body shared by [E_send] and each
       destination of [E_broadcast]. Returns [false] when the send ended the
       operation, having discontinued [k]: [p] died attempting it, or the
       latency was negative. *)
    let send_one p dst msg k =
      if send_forbidden (Array.unsafe_get crash_spec p.id) ~sent:(Metrics.msgs_sent metrics p.id)
      then (crash_in p k; false)
      else
        let size_bits = M.size_bits msg in
        let delay = cfg.latency ~src:p.id ~dst ~time:clock.(0) ~size_bits in
        if not (delay >= 0.) then (
          Effect.Deep.discontinue k (Invalid_argument "Sim.run: negative latency");
          false)
        else begin
          Metrics.on_send metrics p.id ~size_bits;
          if trace_on then
            tr (fun () ->
                Trace.Sent { time = clock.(0); src = p.id; dst; size_bits; tag = M.tag msg });
          if not serialized then at.(0) <- clock.(0) +. delay
          else begin
            let free =
              match Hashtbl.find_opt link_free (p.id, dst) with Some f -> f | None -> 0.
            in
            let departure = Float.max clock.(0) free in
            let transmission = float_of_int size_bits /. cfg.link_rate in
            Hashtbl.replace link_free (p.id, dst) (departure +. transmission);
            at.(0) <- departure +. transmission +. delay
          end;
          let s = alloc slots (deliver_code ~src:p.id ~dst) in
          set_msg slots s msg;
          Heap.push heap ~time:at s;
          true
        end
    in
    let send_from p dst msg k =
      if dst < 0 || dst >= cfg.k then
        Effect.Deep.discontinue k (Invalid_argument "Sim.send: bad destination")
      else if send_one p dst msg k then Effect.Deep.continue k ()
    in
    (* Exactly the sends of a loop over ascending [dst], self skipped, in
       one effect: the same crash point, latency draws, trace records and
       heap order. *)
    let broadcast_from p msg k =
      let rec go dst =
        if dst >= cfg.k then Effect.Deep.continue k ()
        else if dst = p.id then go (dst + 1)
        else if send_one p dst msg k then go (dst + 1)
      in
      go 0
    in
    let handler_for p =
      let open Effect.Deep in
      (* Handlers of the payload-free effects and of [query], whose bit
         waits in [p.query_at], built once per peer rather than on every
         [perform]. *)
      let on_me = Some (fun k -> continue k p.id) in
      let on_k = Some (fun k -> continue k cfg.k) in
      let on_now = Some (fun k -> continue k clock.(0)) in
      let on_rng = Some (fun k -> continue k p.prng) in
      let on_receive =
        Some
          (fun k ->
            if not (Ring.is_empty p.mailbox) then continue k (Ring.pop p.mailbox)
            else p.wait <- On_receive k)
      in
      let on_query =
        Some
          (fun k ->
            if query_range_from p p.query_at 1 p.scratch then
              continue k (Char.code (Bytes.unsafe_get p.scratch 0) land 1 <> 0)
            else crash_in p k)
      in
      let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option = function
        | E_me -> on_me
        | E_k -> on_k
        | E_now -> on_now
        | E_rng -> on_rng
        | E_receive -> on_receive
        | E_send (dst, msg) -> Some (fun k -> send_from p dst msg k)
        | E_broadcast msg -> Some (fun k -> broadcast_from p msg k)
        | E_query_range (pos, len, buf) ->
          Some
            (fun k ->
              if len < 0 then discontinue k (Invalid_argument "Sim.query_range: negative length")
              else if len > 8 * Bytes.length buf then
                discontinue k (Invalid_argument "Sim.query_range: buffer too short")
              else if query_range_from p pos len buf then continue k ()
              else crash_in p k)
        | E_query i ->
          p.query_at <- i;
          on_query
        | _ -> None
      in
      {
        retc = (fun () -> ());
        exnc =
          (function
          | Crashed | Halted -> p.alive <- false
          | e -> raise e);
        effc;
      }
    in
    let start_fiber p =
      Effect.Deep.match_with
        (fun () ->
          let out = proc p.id in
          outputs.(p.id) <- Some (clock.(0), out);
          p.finished <- true;
          if trace_on then tr (fun () -> Trace.Terminated { time = clock.(0); peer = p.id }))
        () (handler_for p)
    in
    (* Seed the schedule: every peer starts at time 0, timed crashes at
       their instants. *)
    let schedule time code =
      at.(0) <- time;
      Heap.push heap ~time:at (alloc slots code)
    in
    Array.iter
      (fun p ->
        schedule 0. (start_code p.id);
        match crash_spec.(p.id) with
        | At_time t0 -> schedule t0 (crash_code p.id)
        | Never | After_sends _ | After_queries _ -> ())
      peers;
    let status = ref Completed in
    (* Coverage observation must cost nothing when off, exactly like the
       trace guard: one boolean test per event, tags rendered only when a
       sink is installed. *)
    let obs_on = cfg.observer <> None in
    let notify s =
      match cfg.observer with
      | None -> ()
      | Some f ->
        let code = slots.codes.(s) in
        let obs_kind, obs_tag =
          match code land 3 with
          | 0 -> (Obs_start, "")
          | 1 -> (Obs_deliver, M.tag slots.msgs.(s))
          | _ -> (Obs_crash, "")
        in
        f { obs_kind; obs_peer = code_peer code; obs_tag; obs_step = !events_done - 1 }
    in
    (* The slot is released before the event runs, which may schedule
       more. *)
    let handle s =
      let code = slots.codes.(s) in
      let p = Array.unsafe_get peers (code_peer code) in
      match code land 3 with
      | 1 ->
        let msg = slots.msgs.(s) and src = code lsr 32 in
        release slots s;
        if p.alive && not p.finished then begin
          if trace_on then
            tr (fun () -> Trace.Delivered { time = clock.(0); src; dst = p.id; tag = M.tag msg });
          match p.wait with
          | On_receive k ->
            p.wait <- Idle;
            Effect.Deep.continue k (src, msg)
          | Idle -> Ring.push p.mailbox (src, msg)
        end
      | kind ->
        release slots s;
        if kind = 2 then kill p else if p.alive then start_fiber p
    in
    let deadlock_check () =
      let blocked =
        Array.to_list peers
        |> List.filter_map (fun p -> if p.alive && not p.finished then Some p.id else None)
      in
      if blocked <> [] then begin
        if trace_on then tr (fun () -> Trace.Deadlocked { time = clock.(0); blocked });
        status := Deadlock blocked
      end
    in
    (* One scheduler loop over a pending pool chosen once. Without an
       arbiter the heap fires the earliest event, with no option/tuple
       boxing. Under an arbiter, freshly scheduled events drain into the
       pool and the arbiter picks which fires next; times are purely
       decorative (a monotone counter). *)
    let pool = Option.map (fun choose -> { choose; items = [||]; len = 0 }) cfg.arbiter in
    let max_events = cfg.max_events in
    let rec loop () =
      if !events_done >= max_events then status := Event_limit_reached
      else if
        match pool with
        | None -> Heap.is_empty heap
        | Some p ->
          drain heap p ~time:at;
          p.len = 0
      then deadlock_check ()
      else begin
        let s =
          match pool with
          | None -> Heap.pop_min heap ~time:clock
          | Some p ->
            clock.(0) <- clock.(0) +. 1.;
            take p
        in
        incr events_done;
        if obs_on then notify s;
        handle s;
        loop ()
      end
    in
    loop ();
    {
      outputs;
      metrics;
      status = !status;
      end_time = clock.(0);
      events = !events_done;
    }
end
