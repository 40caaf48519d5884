(** The R1-R3 domain-safety rules and the dr_race orchestration: census the
    tree, resolve cross-module accesses, check them against the declared
    zones, and emit the machine-readable inventory. *)

type analysis = {
  units_scanned : int;
  items : Inventory.item list;
  singletons : Inventory.singleton list;
  decls : Zones.decl list;
  report : Driver.report;
}

val path_under : owner:string -> string -> bool
(** (for tests) Is [path] inside the [owner] subtree? Separator-normalized;
    leading ["./"]/["../"] segments are ignored so in-tree and out-of-tree
    invocations agree. *)

val singleton_allowed : string -> bool
(** (for tests) R3's allowed surface: [bin/], [bench/], [lib/stats]. *)

val init_like : string option -> bool
(** (for tests) Does this enclosing-binding name count as an initialization
    context for init-only cells? [None] (module-init toplevel) always
    does. *)

val analyze : ?zones_path:string -> string list -> analysis
(** Run the whole analysis over the trees under [roots]. Raises
    {!Driver.Error} on unreadable/unparseable input, a malformed zones
    file, or clashing unit names. *)

val inventory_json : analysis -> string
(** The census as deterministic [dr-race/1] JSON — byte-identical across
    reruns and invocation directories (paths are root-normalized). *)
