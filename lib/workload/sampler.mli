(** Per-processor key sampling for the synthetic generator: combines a
    spec's key-popularity distribution with its locality model.

    A key's popularity weight is a function of its {e global} rank, so a
    hot key is hot for every processor whose candidate set contains it;
    the locality model only restricts which keys a processor may draw
    (all of them, its own, or those homed within a submesh radius), it
    does not reshape the distribution among them. *)

type t

val create : Diva_mesh.Mesh.t -> Spec.t -> t
(** Precomputes per-processor candidate key sets and cumulative weights.
    Raises [Invalid_argument] when some processor's candidate set is empty
    (e.g. [Proc_local] with fewer keys than processors). *)

val draw : t -> proc:int -> Diva_util.Prng.t -> int
(** Draw a key (index in [0 .. num_vars-1]) for processor [proc],
    consuming exactly one [Prng.float] from the given stream. *)

