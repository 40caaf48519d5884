(** The R1-R2 domain-safety rules and the dr_race orchestration: census the
    tree, resolve cross-module accesses, check them against the declared
    zones, and emit the machine-readable inventory. *)

type analysis = {
  units_scanned : int;
  items : Inventory.item list;
  decls : Zones.decl list;
  report : Driver.report;
}

val path_under : owner:string -> string -> bool
(** (for tests) Is [path] inside the [owner] subtree? Separator-normalized;
    leading ["./"]/["../"] segments are ignored so in-tree and out-of-tree
    invocations agree. *)

val init_like : string option -> bool
(** (for tests) Does this enclosing-binding name count as an initialization
    context for init-only cells? [None] (module-init toplevel) always
    does. *)

val analyze : ?zones_path:string -> string list -> analysis
(** Run the whole analysis over the trees under [roots]. Raises
    {!Driver.Error} on unreadable/unparseable input, a malformed zones
    file, or clashing unit names. *)

val inventory_json : analysis -> string
(** The census as deterministic [dr-race/2] JSON — byte-identical across
    reruns and invocation directories. It holds no source positions: items
    sorted by key. *)
