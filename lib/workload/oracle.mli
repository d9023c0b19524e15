(** Online per-variable coherence oracle.

    The chaos harness records every completed shared-memory operation as a
    real-time interval — issue to completion on the simulated clock — and
    the oracle checks the resulting history for per-variable
    linearizability: every read must return a value some write could have
    left as the latest one under an order consistent with real time.
    Writers obtain their values from {!next_write_value}, so every write
    in a run is unique and a read identifies exactly one candidate write.

    The check is conservative: operations whose intervals overlap are
    treated as concurrent and may linearize in either order, so the oracle
    only reports {e definite} violations — histories no linearization can
    explain. Both DIVA strategies implement invalidation-based coherence
    (a write commits only after every cached copy is gone), which is
    linearizable per variable; any reported violation is therefore a
    protocol bug, not oracle noise.

    Detected violation shapes:
    - {b stale read}: read r returns the value of write w, yet some other
      write finished entirely after w finished and entirely before r
      began — w cannot have been the latest write when r ran;
    - {b unknown value}: a read returns a value never written (and not the
      variable's initial value) — lost or duplicated update;
    - {b read inversion}: two reads in disjoint real time return writes in
      the opposite real-time order, both orders disjoint. *)

type t

val create : unit -> t

val init_var : t -> var:int -> value:int -> unit
(** Declare a variable's initial value (a synthetic write preceding every
    real operation). *)

val next_write_value : t -> int
(** A run-unique value for the next write; never collides with any
    initial value registered via {!init_var} (initial values should be 0,
    unique values are positive and allocated once each). *)

val record_read :
  t -> var:int -> proc:int -> value:int -> t0:float -> t1:float -> unit

val record_write :
  t -> var:int -> proc:int -> value:int -> t0:float -> t1:float -> unit

val ops : t -> int
(** Number of operations recorded so far (excluding {!init_var}). *)

val check : t -> (unit, string) result
(** Validate the full recorded history, variable by variable in ascending
    id order; the error describes the first violation found (variable,
    operations, intervals). *)
