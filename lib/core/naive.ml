module Msg = struct
  type t = unit

  let size_bits () = 0
  let tag () = "none"
end

let name = "naive"

module Process (T : Transport.S with type msg = Msg.t) = struct
  let run inst _i = T.query_range ~pos:0 ~len:(Problem.n inst)
end

let core () : (module Transport.CORE) =
  (module struct
    let name = name

    module Msg = Msg
    module Process = Process
  end)
