(** DIVA: transparent access to global variables (shared data objects) from
    the nodes of a simulated mesh network.

    This is the library's main façade. An application creates one [Dsm.t]
    per simulation, declares global variables, and spawns one fiber per
    processor; fibers then call {!read}, {!write}, {!lock}, {!unlock} and
    {!barrier} exactly like the applications in the paper call the DIVA
    runtime. The data management strategy — any {!Registry} contender —
    is chosen at creation time and is completely transparent to the
    application code. *)

type strategy = Strategy.spec =
  | Access_tree of Strategy.tree_config
  | Fixed_home
  | Adaptive of Strategy.adaptive_config

val access_tree :
  ?leaf_size:int ->
  ?embedding:Diva_mesh.Embedding.kind ->
  ?capacity:int ->
  ?combining:bool ->
  ?remap_threshold:int ->
  ?eviction:Strategy.eviction ->
  arity:int ->
  unit ->
  strategy
(** Convenience constructor with the paper's defaults (leaf size 1, regular
    embedding, unbounded memory, combining on, LRU eviction). *)

val adaptive : ?replicate_after:int -> ?migrate_after:int -> unit -> strategy
(** Frequency-adaptive replication with home migration; defaults from
    {!Strategy.adaptive_defaults}. *)

val strategy_name : strategy -> string
(** "2-ary", "4-16-ary", "fixed home", "4-ary+cap64k", ... *)

type t

val create :
  Diva_simnet.Network.t ->
  strategy:strategy ->
  ?read_hit_ops:int ->
  ?write_hit_ops:int ->
  unit ->
  t
(** Builds the data-management layer and installs its message dispatcher on
    every node of the network. [read_hit_ops] / [write_hit_ops] are the
    CPU cost (in integer-operation units) of a locally served access
    (default 10 each). *)

val net : t -> Diva_simnet.Network.t
val num_procs : t -> int

type 'a var

val create_var : t -> ?name:string -> owner:Types.proc -> size:int -> 'a -> 'a var
(** Declare a global variable of [size] bytes whose only copy initially
    resides at [owner]. May be called before the simulation starts or
    dynamically from a fiber (Barnes-Hut allocates tree cells on the fly).
    Creation itself is free, as in the paper's model. *)

val read : t -> Types.proc -> 'a var -> 'a
(** Read the variable from processor [p] (fiber context). A locally cached
    copy is served without communication; otherwise the strategy's read
    transaction runs and the fiber blocks until the value arrives. *)

val write : t -> Types.proc -> 'a var -> 'a -> unit
(** Write the variable from processor [p] (fiber context). *)

val lock : t -> Types.proc -> 'a var -> unit
val unlock : t -> Types.proc -> 'a var -> unit

val barrier : t -> Types.proc -> unit
(** Global barrier over all processors (fiber context). *)

type 'a reducer

val reducer : t -> combine:('a -> 'a -> 'a) -> size:int -> 'a reducer
val reduce : t -> Types.proc -> 'a reducer -> 'a -> 'a
(** All-reduce across processors; acts as a barrier (fiber context). *)

val peek : 'a var -> 'a
(** Current globally consistent value, outside the simulation (tests,
    result verification). *)

val var_name : 'a var -> string

(** {2 Counters} *)

val reads : t -> int
val writes : t -> int
val read_hits : t -> int
val write_hits : t -> int

val ncopies : t -> 'a var -> int
val evictions : t -> int
(** Capacity evictions (always 0 for the home strategies). *)

val remaps : t -> int
(** Tree-node remappings / home migrations (0 unless enabled). *)

val strategy_id : t -> string
(** The strategy family identifier ("access-tree", "fixed-home", ...). *)

(** {2 Testing hooks} *)

val copy_holder_places : t -> 'a var -> Types.proc list
(** Processors currently holding a copy (tree-node placements for the
    access tree strategy). *)

val access_tree_handle : t -> Access_tree.t option
val typed : 'a var -> Types.var
(** Underlying untyped variable record (tests only). *)

val retire_var : t -> 'a var -> unit
(** Release a variable that will never be accessed again; frees all
    protocol state (simulation-memory hygiene for dynamic allocators such
    as the Barnes-Hut tree builder). *)

val validate_var : t -> 'a var -> (unit, string) result
(** Structural invariant check of the strategy's state for this variable,
    meaningful while no transaction is in flight (post-barrier). *)
