(** Embedding of an access tree (a copy of the decomposition tree) into the
    mesh: a map from tree-node ids to mesh nodes.

    Two embeddings are provided. [Regular] is the "practical improvement"
    the paper uses: the root is placed uniformly at random, and every other
    tree node is placed deterministically relative to its parent's position
    ([row mod m1], [col mod m2] within its own submesh), which shortens the
    expected distance between neighbouring tree nodes. [Random] is the
    original embedding of the theoretical analysis: every tree node is
    placed independently and uniformly at random within its submesh.
    Processor leaves always map to their own processor. {!regular} builds
    the whole placement of one tree; {!place_lazy} places single nodes of
    either kind. *)

type t = private {
  decomposition : Decomposition.t;
  place : int array;  (** tree-node id -> mesh node simulating it *)
}

val regular : Decomposition.t -> rng:Diva_util.Prng.t -> t

val place : t -> int -> Mesh.node
(** Mesh node simulating the given tree node. *)

type kind = Regular | Random

(** {2 Lazy placement}

    The data-management layer embeds one access tree {e per global
    variable}; materialising a placement array per variable would be
    wasteful for applications with hundreds of thousands of variables
    (Barnes-Hut). These functions compute the placement of a single tree
    node on demand, deterministically from a per-variable seed. *)

val place_lazy : kind -> Decomposition.t -> seed:int64 -> int -> Mesh.node
(** [place_lazy kind d ~seed id] is the mesh node simulating tree node [id]
    under the given embedding, where [seed] determines the random choices
    (the root placement for {!Regular}; every placement for {!Random}).
    Consistent with {!regular} in distribution, not in the actual
    draws. *)
