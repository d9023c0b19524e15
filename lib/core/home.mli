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

module Impl :
  Strategy.STRATEGY with type t = t and type config = Strategy.adaptive_config
(** [create] raises [Invalid_argument] if either policy parameter is
    < 1. [validate] checks, while no transaction is in flight, that the
    home transaction queue is drained, every valid copy is tracked by the
    home, and the exclusive owner (if any) holds a valid copy. *)
