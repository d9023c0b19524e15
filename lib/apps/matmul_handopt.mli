(** Hand-optimized message-passing matrix squaring — the paper's baseline
    with provably minimal total communication load and congestion.

    Every processor sends its block simultaneously along the four shortest
    paths towards the ends of its row and its column; every processor it
    passes keeps a copy and forwards it. Each processor therefore receives
    each row/column block exactly once over a neighbouring link, and the
    congestion is [m * sqrt P] (in words). *)

type config = Matmul.config = { block : int; compute : bool }

type t

val setup : Diva_simnet.Network.t -> config -> t
(** Generates the same input as {!Matmul.setup} (none without compute: every
    block is one shared zero block) and raises [Invalid_argument] in the
    same cases, before allocating any block. *)

val fiber : t -> Diva_core.Types.proc -> unit

val verify : t -> bool
(** Without compute, [true]: nothing is computed, so nothing is checked.
    Test-only: tests check the baseline computes what {!Matmul} does. *)

val blocks : t -> Matmul.block array
(** Every block the run holds, row-major: the input blocks, then the
    results of a computing run. Test-only: tests measure a run's data
    with it. *)
