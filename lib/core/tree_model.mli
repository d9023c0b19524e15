(** The abstract tree-network model of the underlying theory paper (Maggs
    et al., FOCS'97): the access-tree caching protocol on an arbitrary tree
    network, with exact per-edge accounting of data transmissions, plus a
    dynamic program computing the {e offline optimal} per-edge cost of a
    request sequence.

    The theory proves the protocol 3-competitive with respect to the
    congestion of every single edge; the property tests check this bound
    empirically on random trees and random access sequences. This module is
    purely combinatorial (no discrete-event simulation): it counts how many
    times the variable's contents cross each tree edge. The whole module
    is a test oracle. *)

type tree

val tree_of_parents : int array -> tree
(** [tree_of_parents parents] builds a tree on nodes [0..n-1]; [parents.(0)]
    must be [-1] (the root). Any node may issue accesses. Test-only: the
    competitiveness tests' oracle. *)

val random_tree : Diva_util.Prng.t -> n:int -> tree
(** A random tree on [n] nodes: node [v > 0] hangs below a uniform node
    of [0 .. v-1]. Test-only: the competitiveness tests' oracle. *)

type op = Read of int | Write of int  (** accessing node *)

val online_edge_costs : tree -> owner:int -> op list -> int array
(** Data crossings of every edge (indexed by the child endpoint) when the
    access-tree protocol serves the sequence: reads pull a copy along the
    tree path from the nearest copy holder; writes send the new value to
    the nearest copy holder, invalidate the rest of the component, and
    install copies back along the path to the writer. Test-only: the
    competitiveness tests' oracle. *)

val optimal_edge_cost : tree -> owner:int -> op list -> edge:int -> int
(** Offline optimum number of data crossings of [edge] for the sequence: a
    3-state dynamic program over which side(s) of the edge hold copies.
    Test-only: the competitiveness tests' oracle. *)
