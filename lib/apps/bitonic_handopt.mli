(** Hand-optimized message-passing bitonic sort: every merge&split step
    simply exchanges the two partner blocks with two direct messages along
    the dimension-order path — optimal congestion for the snake-order
    embedding of the circuit into the mesh. No barriers are needed; the
    pairwise messages synchronize the partners. *)

type config = { keys : int; compute : bool }

type t

val setup : Diva_simnet.Network.t -> config -> t
val fiber : t -> Diva_core.Types.proc -> unit

val verify : t -> bool
(** Is the concatenation over wires 0..P-1 sorted and a permutation of the
    input? Test-only: tests check the baseline sorts what {!Bitonic}
    does. *)
