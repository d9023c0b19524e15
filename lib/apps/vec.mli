(** Minimal 3-D vectors for the N-body simulation. *)

type t = { x : float; y : float; z : float }

val zero : t
val make : float -> float -> float -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val norm : t -> float
val min_pointwise : t -> t -> t
val max_pointwise : t -> t -> t
