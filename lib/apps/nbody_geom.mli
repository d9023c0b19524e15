(** Geometry and physics primitives of the Barnes-Hut simulation, factored
    out of the parallel application so they can be unit-tested in
    isolation: octant arithmetic, bounding cubes, softened gravity, and the
    deterministic initial-condition generators. *)

val octant : Vec.t -> Vec.t -> int
(** [octant centre p] is the index (0..7) of the octant of [p] relative to
    [centre]: bit 0 = x, bit 1 = y, bit 2 = z ([>=] goes to the high side). *)

val child_centre : Vec.t -> float -> int -> Vec.t
(** [child_centre centre half o] is the centre of octant [o] of a cube of
    half-side [half] centred at [centre]. *)

val bounding_cube : Vec.t array -> Vec.t * float
(** Smallest (slightly padded) cube containing all points: (centre,
    half side). *)

type acc = { mutable ax : float; mutable ay : float; mutable az : float }
(** An acceleration being summed, unboxed. *)

val acc : unit -> acc
(** A zero acceleration. *)

val add_attraction : acc -> pos:Vec.t -> m:float -> at:Vec.t -> unit
(** [add_attraction a ~pos ~m ~at] adds to [a] the softened gravitational
    acceleration exerted on a unit mass at [pos] by a point mass [m]
    located at [at]. It allocates nothing. *)

val acc_vec : acc -> Vec.t
(** The sum so far, as a vector. *)

val far_enough : theta:float -> half:float -> com:Vec.t -> pos:Vec.t -> bool
(** The Barnes-Hut opening test: a cell of half-side [half] whose centre
    of mass is at [com] is far enough from [pos] to act as one mass when
    [2 half < theta |com - pos|]. *)

val plummer : Diva_util.Prng.t -> float * Vec.t * Vec.t
(** One Plummer-model body: (mass-weight 1.0 to be scaled by caller, pos,
    vel). Radius is rejection-bounded at 8. *)

val uniform : Diva_util.Prng.t -> float * Vec.t * Vec.t
(** One body uniform in the [-1,1]^3 cube with a small random velocity. *)
