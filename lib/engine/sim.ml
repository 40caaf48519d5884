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

(* How many more sends the plan lets a peer make, having made [sent]. *)
let sends_granted spec ~sent =
  match spec with
  | After_sends j -> Int.max 0 (j - sent)
  | Never | At_time _ | After_queries _ -> max_int

let send_forbidden spec ~sent = sends_granted spec ~sent = 0

type status = Completed | Deadlock of int list | Event_limit_reached

type arbiter = int -> int

type obs_kind = Obs_start | Obs_deliver | Obs_crash | Obs_query_reply | Obs_wake

type obs = { obs_kind : obs_kind; obs_peer : int; obs_tag : string; obs_step : int }

type latency = src:int -> size_bits:int -> dsts:int array -> int -> float array -> unit

type config = {
  k : int;
  seed : int64;
  source : peer:int -> pos:int -> len:int -> Bytes.t;
  latency : latency;
  link_rate : float;
  crash : int -> crash_spec;
  trace : Trace.t option;
  max_events : int;
  arbiter : arbiter option;
  observer : (obs -> unit) option;
}

(* Bit [r] of a range's bytes is bit [r land 7] of byte [r lsr 3]: the
   [Bitarray] packing. A one-bit read returns one of two bytes made once
   per adapter, so it allocates nothing. *)
let bit_source query_bit =
  let zero = Bytes.make 1 '\000' and one = Bytes.make 1 '\001' in
  fun ~peer ~pos ~len ->
    if len = 1 then if query_bit ~peer pos then one else zero
    else begin
      let bytes = Bytes.make ((len + 7) / 8) '\000' in
      for r = 0 to len - 1 do
        if query_bit ~peer (pos + r) then
          Bytes.set_uint8 bytes (r lsr 3) (Bytes.get_uint8 bytes (r lsr 3) lor (1 lsl (r land 7)))
      done;
      bytes
    end

let default_config ~k ~query_bit =
  {
    k;
    seed = 1L;
    source = bit_source query_bit;
    latency = (fun ~src:_ ~size_bits:_ ~dsts:_ n delays -> Array.fill delays 0 n 1.);
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

(* The event queue the last run returned with; [None] while a run holds
   it, so a nested run builds its own. *)
let store : Heap.t option ref = ref None
let drop_store () = store := None

module Make (M : MESSAGE) = struct
  type _ Effect.t +=
    | E_send : int * M.t -> unit Effect.t
    | E_broadcast : M.t -> unit Effect.t
    | E_receive : (int * M.t) Effect.t
    | E_await : (unit -> bool) * (int -> M.t -> unit) -> unit Effect.t
    | E_query_range : int * int -> Bytes.t Effect.t
    | E_query : int -> bool Effect.t
    | E_k : int Effect.t
    | E_rng : Prng.t Effect.t

  let peer_count () = Effect.perform E_k
  let send dst msg = Effect.perform (E_send (dst, msg))
  let broadcast msg = Effect.perform (E_broadcast msg)
  let receive () = Effect.perform E_receive
  let await ~ready ~on = if not (ready ()) then Effect.perform (E_await (ready, on))
  let query_range ~pos ~len = Effect.perform (E_query_range (pos, len))
  let query i = Effect.perform (E_query i)
  let rng () = Effect.perform E_rng
  let die () = raise Halted

  (* A one-bit read's answer: bit 0 of the bytes the source returned. *)
  let bit0 bytes = Bytes.get_uint8 bytes 0 land 1 <> 0

  (* A blocked peer: parked in [receive], or in [await] with the predicate
     and handler that each delivery runs on the scheduler's stack. *)
  type wait =
    | Idle
    | On_receive of (int * M.t, unit) Effect.Deep.continuation
    | On_await of (unit, unit) Effect.Deep.continuation * (unit -> bool) * (int -> M.t -> unit)

  type pstate = {
    id : int;
    mutable alive : bool;
    mutable finished : bool;
    mailbox : (int * M.t) Ring.t;
    mutable wait : wait;
    prng : Prng.t;
    mutable query_at : int;  (** the bit the pending [query] asks for *)
  }

  (* The send table: one entry per send effect, shared by every delivery
     it scheduled. Entry [e] holds the number of those deliveries still
     queued in [pending.(e)], the message [msgs.(e)], the sender
     [srcs.(e)] and, when a trace or an observer is installed, the tag
     [tags.(e)], rendered once at the send. Free entries chain from
     [free], each holding in [pending] the distance to the next minus one,
     so the zeros a growth adds link up. [live] entries are open. The
     table is per run. *)
  type sends = {
    mutable pending : int array;
    mutable free : int;
    mutable msgs : M.t array;
    mutable tags : string array;
    mutable srcs : int array;
    mutable live : int;
  }

  (* A pending event is its packed code, queued as the heap's value: kind
     in bits 0-1, the peer it applies to in bits 2-31, a delivery's
     send-table entry from bit 32. *)
  let start_code i = i lsl 2
  let deliver_code ~entry ~dst = 1 lor (dst lsl 2) lor (entry lsl 32)
  let crash_code i = 2 lor (i lsl 2)
  let code_peer code = (code lsr 2) land 0x3fff_ffff

  let grow_ints a n =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* [a] doubled, or 16 copies of [x] if empty, the sizes [pending]
     grows to. [Array.append] forces no minor collection, where
     [Array.make] past 256 entries seeded with a young [x] would. *)
  let doubled a x = if Array.length a = 0 then Array.make 16 x else Array.append a a

  (* A new entry for [msg] from [src], with no delivery queued yet. *)
  let open_entry t ~tags_on ~src msg tag =
    let e = t.free in
    if e = Array.length t.pending then begin
      t.pending <- grow_ints t.pending (Int.max 16 (2 * e));
      t.msgs <- doubled t.msgs msg;
      if tags_on then t.tags <- doubled t.tags tag;
      t.srcs <- grow_ints t.srcs (Array.length t.msgs)
    end;
    t.free <- e + 1 + t.pending.(e);
    Array.unsafe_set t.pending e 0;
    Array.unsafe_set t.msgs e msg;
    if tags_on then Array.unsafe_set t.tags e tag;
    Array.unsafe_set t.srcs e src;
    t.live <- t.live + 1;
    e

  let close_entry t e =
    Array.unsafe_set t.pending e (t.free - e - 1);
    t.free <- e;
    t.live <- t.live - 1

  (* One delivery of entry [e] fired; the last closes it. *)
  let delivered t e =
    let n = t.pending.(e) - 1 in
    if n = 0 then close_entry t e else t.pending.(e) <- n

  (* The arbiter's pending pool: a growable array holding event codes in the
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
    if not Fl.(cfg.link_rate > 0.) then invalid_arg "Sim.run: link_rate must be > 0";
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
            query_at = 0;
          })
    in
    (* A warm run starts from the last one's queue, emptied. *)
    let heap =
      match !store with
      | None -> Heap.create ()
      | Some heap ->
        store := None;
        Heap.clear heap;
        heap
    in
    let table = { pending = [||]; free = 0; msgs = [||]; tags = [||]; srcs = [||]; live = 0 } in
    (* Store-and-forward link serialization: each ordered link transmits at
       [link_rate] bits per time unit, one message at a time, in FIFO order.
       [infinity] (the default) models unbounded bandwidth. [link_free.(src
       * k + dst)] is when the link from [src] to [dst] is next idle. *)
    let serialized = Fl.(cfg.link_rate <> infinity) in
    let link_free = if serialized then Array.make (cfg.k * cfg.k) 0. else [||] in
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
    let trace_on = Option.is_some cfg.trace in
    let tr f = match cfg.trace with None -> () | Some t -> Trace.record t (f ()) in
    (* A message's tag is rendered once per send effect, and only when a
       trace or an observer will read it; every delivery of the effect
       reads it from the send-table entry. *)
    let tags_on = trace_on || Option.is_some cfg.observer in
    let render msg = if tags_on then M.tag msg else "" in
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
        | On_await (k, _, _) ->
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
       gets one record per bit. Resumes [k] with [answer] of the bytes the
       source returned, or crashes [p] if the read reached its crash
       point. *)
    let read_from p pos len k answer =
      let spec = Array.unsafe_get crash_spec p.id in
      let queried = Metrics.queries metrics p.id in
      let m = queries_granted spec ~queried ~len in
      let bytes =
        if m = 0 then Bytes.empty
        else begin
          Metrics.on_query metrics p.id ~bits:m;
          cfg.source ~peer:p.id ~pos ~len:m
        end
      in
      if trace_on then
        for r = 0 to m - 1 do
          let value = Char.code (Bytes.get bytes (r lsr 3)) land (1 lsl (r land 7)) <> 0 in
          tr (fun () -> Trace.Queried { time = clock.(0); peer = p.id; index = pos + r; value })
        done;
      if crashes_after_queries spec ~queried ~granted:m then crash_in p k
      else Effect.Deep.continue k (answer bytes)
    in
    (* One send effect's scratch: its destinations, their delays, then
       their delivery times, and their event codes. *)
    let dsts = Array.make cfg.k 0 and times = Array.make cfg.k 0. in
    let codes = Array.make cfg.k 0 in
    let sends_left p =
      sends_granted (Array.unsafe_get crash_spec p.id) ~sent:(Metrics.msgs_sent metrics p.id)
    in
    (* The one send path: [msg] from [p] to the [count] destinations in
       [dsts], in order, as one batch. The crash rule lets [n] of them go;
       the latency policy fills their delays in one call, the heap takes
       the deliveries in one push, and the effect is charged once. The
       sends before a negative or non-finite delay are queued and charged
       and [k] is discontinued; a forbidden send crashes [p] after the
       allowed ones; otherwise [p] resumes. An effect that sends nothing
       frees its entry at once. *)
    let send_effect p msg count k =
      let tag = render msg and size_bits = M.size_bits msg in
      let n = Int.min (sends_left p) count in
      let e = open_entry table ~tags_on ~src:p.id msg tag in
      if n > 0 then cfg.latency ~src:p.id ~size_bits ~dsts n times;
      let sent = ref 0 and now = clock.(0) in
      while !sent < n && Fl.(times.(!sent) >= 0. && times.(!sent) < infinity) do
        let i = !sent in
        let dst = Array.unsafe_get dsts i and delay = Array.unsafe_get times i in
        if trace_on then tr (fun () -> Trace.Sent { time = now; src = p.id; dst; size_bits; tag });
        if not serialized then Array.unsafe_set times i (now +. delay)
        else begin
          let link = (p.id * cfg.k) + dst in
          let free = link_free.(link) in
          let departure = if Fl.(free > now) then free else now in
          let transmission = float_of_int size_bits /. cfg.link_rate in
          link_free.(link) <- departure +. transmission;
          Array.unsafe_set times i (departure +. transmission +. delay)
        end;
        Array.unsafe_set codes i (deliver_code ~entry:e ~dst);
        sent := i + 1
      done;
      let sent = !sent in
      table.pending.(e) <- sent;
      Heap.push_many heap ~times codes sent;
      if sent > 0 then Metrics.on_send metrics p.id ~count:sent ~size_bits
      else close_entry table e;
      if sent < n then
        Effect.Deep.discontinue k
          (Invalid_argument
             (if Fl.(times.(sent) < 0.) then "Sim.run: negative latency"
              else "Sim.run: non-finite latency"))
      else if n < count then crash_in p k
      else Effect.Deep.continue k ()
    in
    (* A unicast is a batch of one. *)
    let send_from p dst msg k =
      if dst < 0 || dst >= cfg.k then
        Effect.Deep.discontinue k (Invalid_argument "Sim.send: bad destination")
      else begin
        dsts.(0) <- dst;
        send_effect p msg 1 k
      end
    in
    (* Every other peer, ascending: the sends of a loop over [dst] with
       self skipped, the same crash point, latency draws, trace records and
       heap order, in one effect. *)
    let broadcast_from p msg k =
      for i = 0 to cfg.k - 2 do
        Array.unsafe_set dsts i (if i < p.id then i else i + 1)
      done;
      send_effect p msg (cfg.k - 1) k
    in
    (* [await]'s loop body, run on the scheduler's stack over what [p]'s
       mailbox holds: the fiber resumes once [ready] holds, parks when the
       mailbox runs dry, and an exception from [on] or [ready] (a transport
       call among them, as [Effect.Unhandled]) is raised inside it. *)
    let await_from p k ready on =
      let rec go () =
        if Ring.is_empty p.mailbox then false
        else
          let src, msg = Ring.pop p.mailbox in
          on src msg;
          ready () || go ()
      in
      match go () with
      | true -> Effect.Deep.continue k ()
      | false -> p.wait <- On_await (k, ready, on)
      | exception e -> Effect.Deep.discontinue k e
    in
    let handler_for p =
      let open Effect.Deep in
      (* Handlers of the payload-free effects and of [query], whose bit
         waits in [p.query_at], built once per peer rather than on every
         [perform]. *)
      let on_k = Some (fun k -> continue k cfg.k) in
      let on_rng = Some (fun k -> continue k p.prng) in
      let on_receive =
        Some
          (fun k ->
            if not (Ring.is_empty p.mailbox) then continue k (Ring.pop p.mailbox)
            else p.wait <- On_receive k)
      in
      let on_query = Some (fun k -> read_from p p.query_at 1 k bit0) in
      let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option = function
        | E_k -> on_k
        | E_rng -> on_rng
        | E_receive -> on_receive
        | E_await (ready, on) -> Some (fun k -> await_from p k ready on)
        | E_send (dst, msg) -> Some (fun k -> send_from p dst msg k)
        | E_broadcast msg -> Some (fun k -> broadcast_from p msg k)
        | E_query_range (pos, len) ->
          Some
            (fun k ->
              if len < 0 then discontinue k (Invalid_argument "Sim.query_range: negative length")
              else read_from p pos len k Fun.id)
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
      Heap.push heap ~time:at code
    in
    Array.iter
      (fun p ->
        schedule 0. (start_code p.id);
        match crash_spec.(p.id) with
        | At_time t0 when Float.is_nan t0 -> invalid_arg "Sim.run: NaN crash time"
        | At_time t0 -> schedule t0 (crash_code p.id)
        | Never | After_sends _ | After_queries _ -> ())
      peers;
    let status = ref Completed in
    (* Coverage observation must cost nothing when off, exactly like the
       trace guard: one boolean test per event. A delivery's tag is its
       send-table entry's. *)
    let obs_on = Option.is_some cfg.observer in
    let notify code =
      match cfg.observer with
      | None -> ()
      | Some f ->
        let kind = code land 3 in
        f
          {
            obs_kind = (match kind with 0 -> Obs_start | 1 -> Obs_deliver | _ -> Obs_crash);
            obs_peer = code_peer code;
            obs_tag = (if kind = 1 then Array.unsafe_get table.tags (code lsr 32) else "");
            obs_step = !events_done - 1;
          }
    in
    (* The entry is released after its last delivery, before the event
       runs, which may schedule more: a delivery reads its entry first. *)
    let handle code =
      let p = Array.unsafe_get peers (code_peer code) in
      match code land 3 with
      | 1 ->
        let e = code lsr 32 in
        let msg = table.msgs.(e) and src = Array.unsafe_get table.srcs e in
        let tag = if tags_on then Array.unsafe_get table.tags e else "" in
        delivered table e;
        if p.alive && not p.finished then begin
          if trace_on then
            tr (fun () -> Trace.Delivered { time = clock.(0); src; dst = p.id; tag });
          match p.wait with
          | On_receive k ->
            p.wait <- Idle;
            Effect.Deep.continue k (src, msg)
          | On_await (k, ready, on) -> (
            match
              on src msg;
              ready ()
            with
            | false -> ()
            | true ->
              p.wait <- Idle;
              Effect.Deep.continue k ()
            | exception e ->
              p.wait <- Idle;
              Effect.Deep.discontinue k e)
          | Idle -> Ring.push p.mailbox (src, msg)
        end
      | kind ->
        if kind = 2 then kill p else if p.alive then start_fiber p
    in
    let deadlock_check () =
      let blocked =
        Array.to_list peers
        |> List.filter_map (fun p -> if p.alive && not p.finished then Some p.id else None)
      in
      if not (List.is_empty blocked) then begin
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
      then begin
        (* Every delivery has fired, so every entry is free. *)
        if table.live <> 0 then failwith "Sim: a send-table entry outlived its deliveries";
        deadlock_check ()
      end
      else begin
        let code =
          match pool with
          | None -> Heap.pop_min heap ~time:clock
          | Some p ->
            clock.(0) <- clock.(0) +. 1.;
            take p
        in
        incr events_done;
        if obs_on then notify code;
        handle code;
        loop ()
      end
    in
    loop ();
    store := Some heap;
    {
      outputs;
      metrics;
      status = !status;
      end_time = clock.(0);
      events = !events_done;
    }
end
