(** Barnes-Hut N-body simulation over the DIVA layer — the paper's third
    (non-oblivious) application (§3.3), adapted from SPLASH-2.

    Every body and every octree cell is a global variable; the tree is
    rebuilt in every time step by all processors concurrently, with
    per-cell locks, and each of the six phases of a step is separated by a
    barrier:

    + load the bodies into the tree;
    + upward pass to find the centers of mass (owners of cells poll their
      children's readiness);
    + costzones partitioning of the bodies among the processors, using the
      work counts of the previous step;
    + force computation (read-only, ~99 % cache hits);
    + advance body positions and velocities;
    + compute the new size of space (an all-reduce).

    Processor numbers follow the snake order of the mesh decomposition, so
    the costzones' physical locality becomes topological locality. *)

type config = {
  nbodies : int;
  theta : float;  (** opening criterion (SPLASH default 1.0) *)
  dt : float;
  steps : int;  (** total simulated steps *)
  warmup : int;  (** leading steps excluded from the measurement *)
  distribution : [ `Uniform | `Plummer ];
  seed : int;
}

val default_config : nbodies:int -> config
(** 7 steps of which the first 2 are warmup, exactly as in the paper. *)

type phase = Build | Com | Partition | Force | Advance | Space

val phase_name : phase -> string

(** Run counters taken between two measurement marks. *)
type counts = {
  startups : int;  (** message startups *)
  reads : int;  (** DSM reads *)
  read_hits : int;  (** DSM reads served by a local copy *)
  evictions : int;  (** capacity evictions *)
  events : int;  (** simulation events executed *)
}

(** Per-phase measurement of one step (recorded at barrier boundaries). *)
type interval = {
  i_step : int;
  i_phase : phase;
  i_time : float;  (** simulated duration of the phase *)
  i_traffic : Diva_simnet.Link_stats.snapshot;  (** per-link traffic *)
  i_compute : float array;  (** per-processor computation time *)
  i_counts : counts;
}

type t

val setup : Diva_core.Dsm.t -> config -> t
val fiber : t -> Diva_core.Types.proc -> unit

val intervals : t -> interval list
(** All recorded phase intervals of the measured (non-warmup) steps. *)

val final_bodies : t -> (float * Vec.t * Vec.t) array
(** (mass, position, velocity) of every body after the run. *)

val generate : config -> (float * Vec.t * Vec.t) array
(** The deterministic initial conditions for a configuration. *)

val reference : config -> (float * Vec.t * Vec.t) array
(** Sequential O(N^2) integration with exact pairwise forces and the same
    integrator — the ground truth the simulated run is tested against.
    Test-only: the oracle of the Barnes-Hut accuracy tests. *)
