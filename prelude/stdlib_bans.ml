include Stdlib
include Bans
