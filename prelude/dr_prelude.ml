(* What lib/, bin/ and bench/ open: the banned names under alerts
   (bans.mli), and a Stdlib that carries the same alerts, so
   [Stdlib.Random.int] and [open Stdlib] are caught too. Every other
   Stdlib name still resolves to Stdlib itself. lib/ also opens
   Mono_compare, its int-only comparisons. *)

include Bans
module Stdlib = Stdlib_bans
module Mono_compare = Mono_compare
