(** Flat protocol state of one access-tree variable: one packed [int] per
    materialised tree node (more for trees too wide to pack, see
    {!layout}), in slot columns that only grow, found through an
    open-addressed index of packed (tree node, slot) pairs.

    Every pointer a node keeps (its tracking pointer, its lock-token
    pointer, each component edge) is a tree neighbour of the node or
    nothing, so it is stored as a {e neighbour code}: [0] for the parent,
    [k] for the [k]-th child (from 1), and [-1] for none. Translating
    codes to tree nodes is the caller's business.

    A slot index stays valid until {!reset}: adding another node never
    moves a slot, only the columns holding it. *)

type layout
(** Field widths and the number of words per slot, fixed per
    decomposition. *)

val layout : tree_nodes:int -> max_children:int -> extra:int -> layout
(** The layout for a tree of [tree_nodes] nodes whose widest node has
    [max_children] children. One word holds the flags, both pointers, the
    placement and as many edges as fit; a tree whose widest node does not
    fit (16-ary: 17 neighbours of 5 bits each) takes further edge words.
    [extra] words per slot follow for the caller ({!extra}). An index cell
    is a node id and a slot, each as wide as the tree needs; two share a
    word when they fit. *)

val stride : layout -> int
(** Words per slot: the edge words plus [extra]. Test-only: tests check
    how many words a slot of each arity takes. *)

val check_fits : tree_nodes:int -> mesh_nodes:int -> unit
(** Raise [Invalid_argument], naming the limit, if the tree-node count
    exceeds the index's node field or the mesh-node count the placement
    field. *)

val check_header : tree_nodes:int -> max_children:int -> unit
(** Raise [Invalid_argument], naming the limit, if a tree of [tree_nodes]
    nodes whose widest node has [max_children] children does not fit the
    message header ({!header}): its fields must fit a non-negative int. *)

type t

val create : layout -> t
val length : t -> int
(** Materialised nodes. *)

val find : t -> int -> int
(** The slot of a tree node, or [-1] if it was never materialised. *)

val add : t -> int -> toward:int -> token:int -> place:int -> int
(** Materialise a tree node with the given pointers (neighbour codes)
    and placement, no flags and no edges, extra words 0; returns its
    slot. The node must be absent. *)

val iter : (int -> int -> unit) -> t -> unit
(** [f node slot] over the materialised nodes, in index order. *)

val reset : t -> unit
(** Drop every node: the table is empty again and every slot invalid. *)

(** {2 Fields of a slot} *)

val toward : t -> int -> int
val set_toward : t -> int -> int -> unit
val token : t -> int -> int
val set_token : t -> int -> int -> unit
val place : t -> int -> int
val set_place : t -> int -> int -> unit
val pending : t -> int -> bool
val set_pending : t -> int -> bool -> unit

val has_txn : t -> int -> bool
(** Flag: the caller keeps a transaction entry for this node. *)

val set_has_txn : t -> int -> bool -> unit

val has_lock : t -> int -> bool
(** Flag: the caller keeps a lock entry for this node. *)

val set_has_lock : t -> int -> bool -> unit

(** {2 The ordered component-edge list} Newest first, no duplicates, at
    most one entry per neighbour. *)

val edge_count : t -> int -> int

val edge : t -> int -> int -> int
(** [edge t slot i] is the [i]-th newest edge, [0 <= i < edge_count]. *)

val edges : t -> int -> int list
(** The slot's edge codes, newest first. Test-only: the model test
    compares whole edge lists. *)

val add_edge : t -> int -> int -> unit
(** Put a code in front, unless it is already listed. *)

val remove_edge : t -> int -> int -> unit
(** Filter a code out, keeping the order of the rest. *)

val keep_edge : t -> int -> int -> unit
(** Replace the list by the one code. *)

val clear_edges : t -> int -> unit

(** {2 Extra words} *)

val extra : t -> int -> int -> int
(** [extra t slot k] is the slot's [k]-th extra word. *)

val set_extra : t -> int -> int -> int -> unit

(** {2 The message header} An access-tree message's header packed into one
    non-negative int, from bit 0 up: the kind (4 bits), the sender as the
    destination's neighbour code, the destination tree node and the origin
    tree node, the last two as wide as the layout's node ids. *)

val header : layout -> kind:int -> from:int -> tnode:int -> origin:int -> int
(** [kind] below 16, [from] a neighbour code of [tnode]. *)

val header_kind : int -> int
val header_from : layout -> int -> int
val header_tnode : layout -> int -> int
val header_origin : layout -> int -> int
