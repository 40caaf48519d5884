include Stdlib.Printf
