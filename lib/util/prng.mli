(** Deterministic pseudo-random number generation.

    The simulator must be fully reproducible: every run with the same seed
    produces the same embeddings, workloads and schedules. We therefore avoid
    the global [Stdlib.Random] state and thread explicit generator values.
    The generator is splitmix64, which is fast, has a 64-bit state, and
    supports cheap independent sub-streams via {!split}. Drawing an [int],
    a [bool] or a {!chance} allocates nothing; a [float] draw allocates
    only its boxed result. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator determined by [seed]. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give every variable / experiment its own stream so that adding
    draws in one place does not perturb the others. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound-1]. [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p], the same draw, without boxing the
    float: one Bernoulli trial with success probability [p]. *)

val bool : t -> bool

val hash2 : int64 -> int -> int64
(** Stateless mix of a seed and an integer; used for per-object
    deterministic placement without storing generator state. *)

val hash2_int : int64 -> int -> bound:int -> int
(** [hash2_int seed x ~bound] maps to [0, bound-1] uniformly. *)
