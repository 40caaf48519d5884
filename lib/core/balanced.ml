module Bitarray = Dr_source.Bitarray
module Segment = Dr_source.Segment

type payload = { seg : int; part : int; bits : Bitarray.t }

module Msg = struct
  type t = payload

  (* Segment id + part index + payload; headers cost ~2 words. *)
  let size_bits { bits; _ } = 64 + Bitarray.length bits
  let tag { seg; part; _ } = Printf.sprintf "share(seg=%d,part=%d)" seg part
end

let name = "balanced"

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run inst i =
    let n = Problem.n inst in
    let k = inst.Problem.k in
    let b = inst.Problem.b - 64 in
    let b = if b < 1 then 1 else b in
    let spec = Segment.make ~n ~s:(min k n) in
    let y = Bitarray.create n in
    (* Query own segment (peers beyond the segment count own nothing). *)
    let mine =
      if i < spec.Segment.s then begin
        let pos, len = Segment.bounds spec i in
        let mine = T.query_range ~pos ~len in
        Bitarray.blit ~src:mine ~dst:y ~pos;
        Some mine
      end
      else None
    in
    (match mine with
    | Some mine ->
      List.iter (fun (part, bits) -> T.broadcast { seg = i; part; bits }) (Wire.split ~b mine)
    | None -> ());
    (* Collect every other segment. *)
    let assemblies = Dr_engine.Int_table.create 8 in
    let missing = ref (if i < spec.Segment.s then spec.Segment.s - 1 else spec.Segment.s) in
    T.await
      ~ready:(fun () -> !missing <= 0)
      ~on:(fun _src { seg; part; bits } ->
        if seg >= 0 && seg < spec.Segment.s && seg <> i then
          match Wire.Assembly.feed assemblies seg ~len:(Segment.len spec seg) ~b ~part bits with
          | Some full ->
            Bitarray.blit ~src:full ~dst:y ~pos:(Segment.start spec seg);
            decr missing
          | None -> ());
    y
end

let core () : (module Transport.CORE) =
  (module struct
    let name = name

    module Msg = Msg
    module Process = Process
  end)
