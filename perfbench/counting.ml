(* A bench-side wrapper over Transport.S. It counts what a protocol core asks
   of its transport and, when [price_wire] is set, prices every send the way
   the socket transport frames it: the Marshal payload plus the frame header,
   against the modelled size ⌈size_bits/8⌉. The protocol sees the same
   transport calls in the same order, so a wrapped simulator run fires the
   same schedule as the registry's own runner. *)

module Transport = Dr_core.Transport

type t = {
  mutable sends : int;
  mutable receives : int;
  mutable wire_msgs : int;
  mutable wire_bytes : int;
  mutable model_bytes : int;
  mutable price_wire : bool;
}

(* One process, one domain: a single global tally is all the bench needs. *)
let counts =
  { sends = 0; receives = 0; wire_msgs = 0; wire_bytes = 0; model_bytes = 0; price_wire = false }

let reset () =
  counts.sends <- 0;
  counts.receives <- 0;
  counts.wire_msgs <- 0;
  counts.wire_bytes <- 0;
  counts.model_bytes <- 0

module Make (M : Transport.MSG) (T : Transport.S with type msg = M.t) :
  Transport.S with type msg = M.t = struct
  include T

  let price m copies =
    if counts.price_wire then begin
      let wire = Bytes.length (Marshal.to_bytes m []) + Dr_core.Wire.Frame.header_len in
      counts.wire_msgs <- counts.wire_msgs + copies;
      counts.wire_bytes <- counts.wire_bytes + (copies * wire);
      counts.model_bytes <- counts.model_bytes + (copies * ((M.size_bits m + 7) / 8))
    end

  let send dst m =
    counts.sends <- counts.sends + 1;
    price m 1;
    T.send dst m

  let broadcast m =
    let copies = T.peer_count () - 1 in
    counts.sends <- counts.sends + copies;
    price m copies;
    T.broadcast m

  let receive () =
    counts.receives <- counts.receives + 1;
    T.receive ()
end
