include Stdlib
module Sys = Sys_bans
module Hashtbl = Hashtbl_bans
module List = List_bans
module Printf = Printf_bans
module Format = Format_bans
