module Data_source = Dr_source.Data_source

type t = {
  source : Data_source.t;
  k : int;
  lsock : Unix.file_descr;
  port : int;
  lock : Mutex.t;
  replay : (int * Source_proto.response) option array;
      (* per peer: last processed Query_range seq and its response. Sequence
         numbers increase monotonically per peer, and a retry always
         re-sends the highest one, so one slot per peer suffices. *)
  mutable replays : int;
  mutable stopping : bool;
  mutable accepter : Thread.t option;
}

let create ?(addr = Unix.inet_addr_loopback) ?(port = 0) ~k x =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (addr, port));
  Unix.listen lsock 64;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  {
    source = Data_source.create ~k x;
    k;
    lsock;
    port;
    lock = Mutex.create ();
    replay = Array.make (max k 1) None;
    replays = 0;
    stopping = false;
    accepter = None;
  }

let port t = t.port

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stats t =
  locked t (fun () -> Array.init t.k (Data_source.queries_by t.source))

let total_queries t = locked t (fun () -> Data_source.total_queries t.source)
let replay_hits t = locked t (fun () -> t.replays)

(* A range is checked whole before any bit is read, so a bad one charges
   nothing; a good one charges [len], as [len] one-bit reads would. *)
let query_range t ~peer ~pos ~len : Source_proto.response =
  let n = Data_source.n t.source in
  if pos < 0 || len < 0 || pos > n - len then
    Err (Printf.sprintf "range (pos %d, len %d) outside the %d-bit input" pos len n)
  else Bits (Dr_source.Bitarray.init_bytes len (Data_source.read_range t.source ~peer ~pos ~len))

(* Answer one [Query_range] under the lock: either replay the cached
   response for a sequence number already processed (a transport retry —
   charged nothing), or read the range from the metered Data_source and
   cache the result. This call is the net runtime's whole Q-accounting
   boundary (lint rule L4 confines [Data_source.read_range] here). *)
let answer_query t ~peer ~seq ~pos ~len : Source_proto.response =
  locked t (fun () ->
      match t.replay.(peer) with
      | Some (s, cached) when Int.equal s seq ->
        t.replays <- t.replays + 1;
        cached
      | Some (s, _) when seq < s ->
        Source_proto.Err (Printf.sprintf "stale sequence %d (last processed %d)" seq s)
      | _ ->
        let resp = query_range t ~peer ~pos ~len in
        t.replay.(peer) <- Some (seq, resp);
        resp)

let handle t fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let reply (r : Source_proto.response) = Frame.send_value fd r in
  (try
     match (Frame.recv_value fd : Source_proto.request) with
     | Hello peer when peer >= -1 && peer < t.k ->
       let rec loop () =
         match (Frame.recv_value fd : Source_proto.request) with
         | Query_range { seq; pos; len } ->
           if peer < 0 then reply (Err "control connection cannot query")
           else reply (answer_query t ~peer ~seq ~pos ~len);
           loop ()
         | Stats ->
           reply
             (Stats_reply
                { per_peer = stats t; total = total_queries t; replays = replay_hits t });
           loop ()
         | Shutdown ->
           t.stopping <- true;
           reply Bye
         | Hello _ -> reply (Err "already greeted")
       in
       loop ()
     | Hello _ -> reply (Err "peer id out of range")
     | _ -> reply (Err "expected Hello")
   with End_of_file | Unix.Unix_error _ | Frame.Corrupt _ | Frame.Desync _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve t =
  let rec loop () =
    if not t.stopping then begin
      match Unix.accept t.lsock with
      | fd, _ ->
        if t.stopping then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          ignore (Thread.create (fun () -> handle t fd) ());
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
    end
  in
  loop ();
  try Unix.close t.lsock with Unix.Unix_error _ -> ()

let start t = t.accepter <- Some (Thread.create serve t)

let stop t =
  t.stopping <- true;
  (* Wake the accept loop with a throwaway connection. *)
  (try
     let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port))
      with Unix.Unix_error _ -> ());
     Unix.close s
   with Unix.Unix_error _ -> ());
  match t.accepter with
  | Some th ->
    Thread.join th;
    t.accepter <- None
  | None -> ( try Unix.close t.lsock with Unix.Unix_error _ -> ())
