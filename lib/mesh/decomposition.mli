(** Hierarchical decomposition of a mesh and its decomposition tree.

    The 2-ary decomposition recursively halves the longest side of the mesh
    (splitting off the ceil-half first; ties are broken toward the first
    dimension), exactly as in Figure 1 of the paper for 2-D meshes and as
    in the underlying theory for d-dimensional ones. The 4-ary
    decomposition skips the odd levels of the 2-ary one, and the 16-ary
    decomposition skips the odd levels of the 4-ary one.

    An [l]-[k]-ary decomposition additionally terminates at submeshes of
    size <= [k]: a tree node representing a submesh of size [k' <= k] gets
    [k'] children, one per processor of the submesh. The plain [l]-ary tree
    is the special case [k = 1]. The access trees of all global variables
    are copies of this decomposition tree. *)

type submesh = { origin : int array; sizes : int array }

type arity = Two | Four | Sixteen

val arity_of_int : int -> arity
(** 2, 4 or 16. *)

type t = private {
  mesh : Mesh.t;
  arity : arity;
  leaf_size : int;
  parent : int array;  (** tree-node id -> parent id; the root has parent -1 *)
  children : int array array;  (** tree-node id -> children ids, in order *)
  submesh : submesh array;  (** tree-node id -> its submesh *)
  proc : int array;  (** tree-node id -> mesh node if processor leaf, else -1 *)
  leaf_of_proc : int array;  (** mesh node -> its leaf tree-node id *)
  depth : int array;  (** tree-node id -> depth (root = 0) *)
  subtree_end : int array;
      (** tree-node id -> end (exclusive) of its preorder id range; node [x]
          is in the subtree of [a] iff [a <= x < subtree_end a] *)
  num_tree_nodes : int;
}

val build : Mesh.t -> arity:arity -> leaf_size:int -> t
(** [build mesh ~arity ~leaf_size] constructs the decomposition tree. The
    root has id 0 and node ids are assigned in preorder. *)

val is_leaf : t -> int -> bool

val next_hop : t -> from:int -> target:int -> int
(** The tree neighbour of [from] that lies on the unique tree path from
    [from] to [target]. [from] and [target] must differ. *)

val snake_order : Mesh.t -> Mesh.node array
(** Processors in left-to-right order of the leaves of the pure 2-ary
    decomposition tree. The applications use this numbering (as the paper
    does for bitonic sorting and the Barnes-Hut costzones) because it turns
    topological proximity in the mesh into proximity of processor numbers. *)

val strategy_name : arity:arity -> leaf_size:int -> string
(** Display name: "2-ary", "2-4-ary", "4-16-ary", ... following the paper's
    naming of the variants. *)
