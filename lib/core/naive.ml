module Bitarray = Dr_source.Bitarray

module Msg = struct
  type t = unit

  let size_bits () = 0
  let tag () = "none"
end

let name = "naive"
let supports _ = Ok ()

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run inst _i =
    let n = Problem.n inst in
    let y = Bitarray.create n in
    for j = 0 to n - 1 do
      Bitarray.set y j (T.query j)
    done;
    y
end

let core () : (module Transport.CORE) =
  (module struct
    let name = name
    let supports = supports

    module Msg = Msg
    module Process = Process
  end)
