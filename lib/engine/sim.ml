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

type config = {
  k : int;
  seed : int64;
  source : peer:int -> pos:int -> len:int -> Bytes.t;
  latency : src:int -> dst:int -> size_bits:int -> float;
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
    latency = (fun ~src:_ ~dst:_ ~size_bits:_ -> 1.);
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

(* The queue and slot codes the last run in this domain returned with;
   [None] while a run holds them, so a nested run builds its own. *)
type store = { heap : Heap.t; codes : int array }

let store : store option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

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

  (* A pending event is an int slot: packed code [codes.(s)] (kind in bits
     0-1, the peer it applies to in bits 2-31, a delivery's source from bit
     32) and, for a delivery, message [msgs.(s)] and, when a trace or an
     observer is installed, its tag [tags.(s)], rendered once at the send.
     Free slots chain from [free], each holding the distance to the next
     minus one, so the zeros a growth adds link up; past the end, [alloc]
     grows the pool. [msgs] and [tags] grow only in [set_msg] and
     [set_tag], seeded with the value stored: no dummy. *)
  type slots = {
    mutable codes : int array;
    mutable msgs : M.t array;
    mutable tags : string array;
    mutable free : int;
  }

  let start_code i = i lsl 2
  let deliver_code ~src ~dst = 1 lor (dst lsl 2) lor (src lsl 32)
  let crash_code i = 2 lor (i lsl 2)
  let code_peer code = (code lsr 2) land 0x3fff_ffff

  let grow_ints a n =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* A checked read: a stale code in a reused pool must fail, not send
     [free] out of bounds. *)
  let alloc slots code =
    if slots.free >= Array.length slots.codes then
      slots.codes <- grow_ints slots.codes (Int.max 16 (2 * Array.length slots.codes));
    let s = slots.free in
    slots.free <- s + 1 + slots.codes.(s);
    Array.unsafe_set slots.codes s code;
    s

  (* [a] grown past index [s] by doubling (not to a bigger run's [codes]),
     padded with [x]. Past 256 slots a young [a.(0)] forces a minor GC, as
     [Array.init] seeds the array with it; [Array.append a a] avoids that
     but raised sim-deep's heap peak from 0.80 to 1.18 MB. *)
  let grown a s x =
    let n = Array.length a in
    Array.init (Int.max (s + 1) (Int.max 16 (2 * n))) (fun i -> if i < n then a.(i) else x)

  let set_msg slots s msg =
    if s >= Array.length slots.msgs then slots.msgs <- grown slots.msgs s msg;
    Array.unsafe_set slots.msgs s msg

  let set_tag slots s tag =
    if s >= Array.length slots.tags then slots.tags <- grown slots.tags s tag;
    Array.unsafe_set slots.tags s tag

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
    (* A warm run starts from the last one's storage, emptied: the zeroed
       codes chain their slots exactly as a cold pool's growth does. *)
    let heap, codes =
      match Domain.DLS.get store with
      | None -> (Heap.create (), [||])
      | Some { heap; codes } ->
        Domain.DLS.set store None;
        Heap.clear heap;
        Array.fill codes 0 (Array.length codes) 0;
        (heap, codes)
    in
    let slots = { codes; msgs = [||]; tags = [||]; free = 0 } in
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
       trace or an observer will read it; every destination's slot shares
       the string. *)
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
    (* A send effect's one charge: none when it made no send. *)
    let charge p ~count ~size_bits =
      if count > 0 then Metrics.on_send metrics p.id ~count ~size_bits
    in
    (* One send from [p] to [dst] of [msg] ([size_bits] bits, rendered tag
       [tag]) that the crash rule allows: the body shared by [E_send] and
       each destination of [E_broadcast]. On a negative or non-finite
       latency it charges the effect's [sent] earlier sends, discontinues
       [k] and returns [false]. *)
    let send_one p dst msg ~size_bits tag ~sent k =
      let delay = cfg.latency ~src:p.id ~dst ~size_bits in
      if not Fl.(delay >= 0. && delay < infinity) then begin
        charge p ~count:sent ~size_bits;
        Effect.Deep.discontinue k
          (Invalid_argument
             (if Fl.(delay < 0.) then "Sim.run: negative latency"
              else "Sim.run: non-finite latency"));
        false
      end
      else begin
        if trace_on then
          tr (fun () -> Trace.Sent { time = clock.(0); src = p.id; dst; size_bits; tag });
        if not serialized then at.(0) <- clock.(0) +. delay
        else begin
          let link = (p.id * cfg.k) + dst in
          let free = link_free.(link) in
          let departure = if Fl.(free > clock.(0)) then free else clock.(0) in
          let transmission = float_of_int size_bits /. cfg.link_rate in
          link_free.(link) <- departure +. transmission;
          at.(0) <- departure +. transmission +. delay
        end;
        let s = alloc slots (deliver_code ~src:p.id ~dst) in
        set_msg slots s msg;
        if tags_on then set_tag slots s tag;
        Heap.push heap ~time:at s;
        true
      end
    in
    let sends_left p =
      sends_granted (Array.unsafe_get crash_spec p.id) ~sent:(Metrics.msgs_sent metrics p.id)
    in
    let send_from p dst msg k =
      if dst < 0 || dst >= cfg.k then
        Effect.Deep.discontinue k (Invalid_argument "Sim.send: bad destination")
      else
        let tag = render msg in
        if sends_left p = 0 then crash_in p k
        else
          let size_bits = M.size_bits msg in
          if send_one p dst msg ~size_bits tag ~sent:0 k then (
            charge p ~count:1 ~size_bits;
            Effect.Deep.continue k ())
    in
    (* Exactly the sends of a loop over ascending [dst], self skipped, in
       one effect: the same crash point, latency draws, trace records, heap
       order and charge, with the size, the crash allowance and the
       [Metrics] update paid once. *)
    let broadcast_from p msg k =
      let tag = render msg and size_bits = M.size_bits msg and left = sends_left p in
      let rec go dst sent =
        if dst >= cfg.k then (charge p ~count:sent ~size_bits; Effect.Deep.continue k ())
        else if dst = p.id then go (dst + 1) sent
        else if sent = left then (charge p ~count:sent ~size_bits; crash_in p k)
        else if send_one p dst msg ~size_bits tag ~sent k then go (dst + 1) (sent + 1)
      in
      go 0 0
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
      Heap.push heap ~time:at (alloc slots code)
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
       trace guard: one boolean test per event. A delivery's tag is the one
       its send stored. *)
    let obs_on = Option.is_some cfg.observer in
    let notify s =
      match cfg.observer with
      | None -> ()
      | Some f ->
        let code = slots.codes.(s) in
        let kind = code land 3 in
        f
          {
            obs_kind = (match kind with 0 -> Obs_start | 1 -> Obs_deliver | _ -> Obs_crash);
            obs_peer = code_peer code;
            obs_tag = (if kind = 1 then Array.unsafe_get slots.tags s else "");
            obs_step = !events_done - 1;
          }
    in
    (* The slot is released before the event runs, which may schedule
       more; [release] relinks only [codes], so the slot's tag stays
       readable until the event schedules something. *)
    let handle s =
      let code = slots.codes.(s) in
      let p = Array.unsafe_get peers (code_peer code) in
      match code land 3 with
      | 1 ->
        let msg = slots.msgs.(s) and src = code lsr 32 in
        release slots s;
        if p.alive && not p.finished then begin
          if trace_on then
            tr (fun () ->
                Trace.Delivered { time = clock.(0); src; dst = p.id; tag = slots.tags.(s) });
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
        release slots s;
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
    Domain.DLS.set store (Some { heap; codes = slots.codes });
    {
      outputs;
      metrics;
      status = !status;
      end_time = clock.(0);
      events = !events_done;
    }
end
