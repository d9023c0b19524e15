(** Batcher's bitonic sorting over the DIVA layer — the paper's second
    application (§3.2).

    Every processor simulates one wire of the sorting circuit and holds a
    block of [keys] keys in a global variable; the compare-exchange
    operation becomes a merge&split (the lower wire keeps the lower half).
    Wires are mapped to processors through the snake order of the 2-ary
    mesh decomposition, so that the mergers' locality becomes topological
    locality — the locality the access tree strategy exploits. *)

type config = {
  keys : int;  (** keys per processor *)
  compute : bool;  (** charge the merge / initial-sort arithmetic *)
}

type t

val setup : Diva_core.Dsm.t -> config -> t
(** Requires a power-of-two number of processors. *)

val fiber : t -> Diva_core.Types.proc -> unit
val verify : t -> bool
(** Concatenation over wires 0..P-1 is globally sorted and is a
    permutation of the input. *)

val steps : t -> int
(** Number of merge&split steps = depth of the circuit. *)

val initial_keys : nwires:int -> keys:int -> int array array
(** The input: [keys] keys per wire from one fixed-seed stream (seed
    5099), so every call returns the same blocks (shared with the
    baseline). *)

val merge_split : keep_lower:bool -> int array -> int array -> int array
(** Merge two sorted blocks of equal length and keep the lower (or upper)
    half — the paper's merge&split operation (shared with the baseline). *)
