(** Home-based strategies: the CC-NUMA ownership scheme the paper
    compares against, and its frequency-adaptive variant.

    Every global variable is assigned a {e home} processor chosen
    uniformly at random; the home keeps track of the variable's copies
    using the classic ownership scheme. At any time either one processor
    or the home ("main memory") owns the variable. A write by a non-owner
    asks the home to invalidate all copies and hands ownership to the
    writer, whose subsequent writes are then local. A read by a processor
    without a copy goes to the home, which first moves the data back from
    the owner if ownership is with a processor, then replies (ownership
    returns to the home). All requests for a variable serialize at its
    home. Locks are managed by a FIFO queue at the home.

    The policy ({!Strategy.adaptive_config}) adds two twists from the
    data-grids replication literature:
    - a reader earns a cached replica only after [replicate_after]
      consecutive home read misses since its last invalidation, so cold
      or write-shared data stays un-replicated and its writes pay no
      invalidation fan-out;
    - every [migrate_after] home transactions the home re-examines the
      per-processor request tally and migrates to a processor that
      accounts for at least half of the window (paying one data-sized
      state-transfer message); requests already in flight toward the old
      home are forwarded. Migrations are reported as [remaps]. *)

type t

val fixed : Strategy.adaptive_config
(** Fixed home: [{ replicate_after = 1; migrate_after = max_int }]. It
    replicates on the first miss and never migrates, and keeps no
    per-variable streak or tally. *)

val create : Diva_simnet.Network.t -> Strategy.adaptive_config -> t
(** Build the protocol state for the policy. Installs no network handler:
    the [Dsm] façade dispatches messages to {!handle}. Raises
    [Invalid_argument] if either policy parameter is < 1. *)

val handle : t -> Diva_simnet.Network.msg -> bool
(** Process a protocol message; returns [false] if the payload does not
    belong to this protocol. *)

val cached : t -> Types.proc -> Types.var -> bool
(** Does the processor hold a valid copy? (The local-read fast path.) *)

val sole_copy : t -> Types.proc -> Types.var -> bool
(** Does the processor own the variable, with no home transaction in
    flight? (The local-write fast path.) *)

val read : t -> Types.proc -> Types.var -> k:(Value.t -> unit) -> unit
(** Start a read at the home; [k] receives the value. *)

val write : t -> Types.proc -> Types.var -> Value.t -> k:(unit -> unit) -> unit
(** Start a write transaction at the home; [k] runs at commit. *)

val lock : t -> Types.proc -> Types.var -> k:(unit -> unit) -> unit
(** Join the home's FIFO lock queue; [k] runs at the grant. *)

val unlock : t -> Types.proc -> Types.var -> unit

val ncopies : t -> Types.var -> int

val copy_holders : t -> Types.var -> Types.proc list
(** Processors holding a valid copy, sorted. *)

val remaps : t -> int
(** Home migrations performed so far (0 under {!fixed}). *)

val retire : t -> Types.var -> unit
(** Drop the variable's home state; see {!Access_tree.retire}. *)

val validate : t -> Types.var -> (unit, string) result
(** Check, while no transaction is in flight, that the home transaction
    queue is drained, every valid copy is tracked by the home, and the
    exclusive owner (if any) holds a valid copy. *)
