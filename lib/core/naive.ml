module Msg = struct
  type t = unit

  let size_bits () = 0
  let tag () = "none"
end

let name = "naive"
let supports _ = Ok ()

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run inst _i = T.query_range ~pos:0 ~len:(Problem.n inst)
end

let core () : (module Transport.CORE) =
  (module struct
    let name = name
    let supports = supports

    module Msg = Msg
    module Process = Process
  end)
