include Stdlib.Format
