(** The access tree strategy of Maggs et al. (FOCS'97), as implemented in
    the DIVA library and evaluated by the paper.

    Every global variable gets its own {e access tree} — a copy of the
    hierarchical mesh-decomposition tree — embedded randomly (but locality
    preservingly) into the mesh. A simple caching protocol runs on the
    tree: the tree nodes holding a copy of a variable always form a
    connected component; every other tree node keeps a {e data-tracking
    pointer} toward that component.

    - A read from processor [p] chases pointers from [p]'s leaf to the
      nearest copy holder [u]; the reply retraces the tree path, leaving a
      copy on every tree node it passes. Concurrent reads of the same
      variable {e combine}: a request reaching a tree node that is already
      waiting for a reply parks there and is served — via a multicast along
      tree branches — when the reply passes.
    - A write chases pointers to the nearest copy holder [u]; [u]
      invalidates the rest of the component by a multicast along component
      edges (each invalidated node's pointer is flipped toward the sender,
      keeping all pointer chains valid), then the fresh contents are
      installed on every tree node on the path from [u] to the writer.

    All protocol traffic travels along tree edges, each routed on the
    dimension-order mesh path between the placements of its endpoints. A
    message between two tree nodes placed on the same processor never
    enters the network.

    Writes to a variable are serialized against each other and against
    in-flight read transactions of that variable; read cache-hits are not
    serialized. Optionally, per-processor memory is bounded and copies are
    evicted in LRU fashion (only copies whose removal keeps the component
    connected are eligible). *)

type t

val create : Diva_simnet.Network.t -> Strategy.tree_config -> t
(** Build the protocol state, decomposition included, from the config.
    Installs no network handler: the [Dsm] façade dispatches messages to
    {!handle}. Two config fields are ablations: [combining = false]
    forwards a read reaching a busy tree node instead of parking it on the
    in-flight reply, and [remap_threshold] enables the {e remapping} of the
    original FOCS'97 strategy, which the paper omits: a tree node that has
    served that many protocol messages moves to a fresh random processor
    of its submesh, paying one message to move its state. The [remapping]
    bench ablation tests the paper's claim that this is not repaid. *)

val handle : t -> Diva_simnet.Network.msg -> bool
(** Process a protocol message; returns [false] if the payload does not
    belong to this protocol. *)

val place : t -> Types.var -> int -> Diva_mesh.Mesh.node
(** Mesh placement of a tree node of the variable's access tree, remaps
    included. *)

val cached : t -> Types.proc -> Types.var -> bool
(** Does the processor's leaf currently hold a copy? (The fast path.) *)

val sole_copy : t -> Types.proc -> Types.var -> bool
(** Does the processor hold the {e only} copy? (Local-write fast path;
    still subject to transaction gating, see {!write}.) *)

val read : t -> Types.proc -> Types.var -> k:(Value.t -> unit) -> unit
(** Start a read transaction; [k] receives the value when it completes.
    Must be called from an event context (e.g. a fiber's suspend). *)

val write : t -> Types.proc -> Types.var -> Value.t -> k:(unit -> unit) -> unit
(** Start a write transaction; [k] runs at commit. *)

val lock : t -> Types.proc -> Types.var -> k:(unit -> unit) -> unit
(** Acquire the variable's lock: Raymond's token-passing mutual exclusion
    run on the variable's own access tree ("elegant algorithms that use
    access trees"). *)

val unlock : t -> Types.proc -> Types.var -> unit
(** Release the lock; must be called by the current holder. *)

val ncopies : t -> Types.var -> int
(** Current number of copies (for tests and reports). *)

val copy_holders : t -> Types.var -> int list
(** Tree nodes currently holding copies (for invariant checks in tests). *)

val deco : t -> Diva_mesh.Decomposition.t
(** The decomposition tree the protocol runs on. *)

val evictions : t -> int
(** Number of capacity evictions performed so far. *)

val remaps : t -> int
(** Number of tree-node remappings performed (0 unless enabled). *)

val states : t -> int
(** Number of (variable, tree node) states currently materialised, over
    all variables; {!retire} releases a variable's. Test-only: the memory
    tests bound the states a run leaves behind. *)

val retire : t -> Types.var -> unit
(** Drop all protocol state of a variable that will never be accessed
    again (a freed object, e.g. a Barnes-Hut cell of a discarded tree).
    Keeps the simulator's memory bounded on long runs. *)

val validate : t -> Types.var -> (unit, string) result
(** Check the protocol's structural invariants for a variable while no
    transaction is in flight: the copy holders form a connected subtree,
    the copy count matches, every materialised tracking pointer leads
    to the component, and no tree node keeps transaction state (waiting
    readers, parked origins, outstanding acks, a pending read). For
    tests. *)
