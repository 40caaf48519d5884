include Stdlib.Sys
