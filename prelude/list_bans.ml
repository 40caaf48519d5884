include Stdlib.List
