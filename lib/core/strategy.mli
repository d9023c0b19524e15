(** Strategy choices as data.

    A strategy choice is a {!spec}: a configured access tree
    ({!Access_tree}) or a home-based policy ({!Home}). [Dsm.create]
    builds the protocol the spec names; {!Registry} maps names to specs. *)

type eviction = Lru | Freq
(** Victim selection under a finite per-node capacity: least recently
    used, or least frequently used (lifetime touch count). *)

type tree_config = {
  arity : int;  (** 2, 4 or 16 *)
  leaf_size : int;  (** terminate the decomposition at submeshes <= this *)
  embedding : Diva_mesh.Embedding.kind;
  capacity : int option;  (** per-processor memory bound in bytes *)
  combining : bool;  (** read combining (on by default) *)
  remap_threshold : int option;
      (** enable the FOCS'97 remapping of hot tree nodes *)
  eviction : eviction;  (** victim policy when [capacity] is set *)
}

type adaptive_config = {
  replicate_after : int;
      (** grant a cached replica only after this many consecutive home
          misses by the same processor since its last invalidation *)
  migrate_after : int;
      (** re-examine the home placement every this many home transactions *)
}

type spec =
  | Access_tree of tree_config
  | Fixed_home  (** the home-based policy {!Home.fixed} *)
  | Adaptive of adaptive_config

val tree_defaults : tree_config
(** The paper's defaults: 4-ary, leaf size 1, regular embedding, unbounded
    memory, combining on, LRU. *)

val adaptive_defaults : adaptive_config

val spec_name : spec -> string
(** "2-ary", "4-16-ary", "fixed home", "4-ary+cap64k", ... *)
