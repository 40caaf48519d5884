include Stdlib.Hashtbl

let create n = create n
