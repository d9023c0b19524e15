module Prng = Diva_util.Prng

let softening = 0.05

let octant centre (p : Vec.t) =
  (if p.Vec.x >= centre.Vec.x then 1 else 0)
  lor (if p.Vec.y >= centre.Vec.y then 2 else 0)
  lor (if p.Vec.z >= centre.Vec.z then 4 else 0)

let child_centre centre half o =
  let q = half /. 2.0 in
  Vec.add centre
    (Vec.make
       (if o land 1 <> 0 then q else -.q)
       (if o land 2 <> 0 then q else -.q)
       (if o land 4 <> 0 then q else -.q))

let bounding_cube positions =
  let lo =
    Array.fold_left Vec.min_pointwise (Vec.make infinity infinity infinity)
      positions
  in
  let hi =
    Array.fold_left Vec.max_pointwise
      (Vec.make neg_infinity neg_infinity neg_infinity)
      positions
  in
  let centre = Vec.scale 0.5 (Vec.add lo hi) in
  let ext = Vec.sub hi lo in
  let half = 0.5 *. 1.0001 *. Float.max ext.Vec.x (Float.max ext.Vec.y ext.Vec.z) in
  (centre, Float.max half 1e-9)

type acc = { mutable ax : float; mutable ay : float; mutable az : float }

let acc () = { ax = 0.0; ay = 0.0; az = 0.0 }

(* The float operations of [r = at - pos], [|r|^2 + softening^2] and
   [acc + (m / (d2 * sqrt d2)) r], in that order, with nothing boxed. *)
let add_attraction a ~pos ~m ~at:(q : Vec.t) =
  let rx = q.x -. pos.Vec.x
  and ry = q.y -. pos.Vec.y
  and rz = q.z -. pos.Vec.z in
  let d2 =
    ((rx *. rx) +. (ry *. ry) +. (rz *. rz)) +. (softening *. softening)
  in
  let s = m /. (d2 *. sqrt d2) in
  a.ax <- a.ax +. (s *. rx);
  a.ay <- a.ay +. (s *. ry);
  a.az <- a.az +. (s *. rz)

let acc_vec a = Vec.make a.ax a.ay a.az

(* [2 half < theta |com - pos|], the norm as [Vec.norm] computes it. *)
let far_enough ~theta ~half ~com:(c : Vec.t) ~pos:(p : Vec.t) =
  let dx = c.x -. p.x and dy = c.y -. p.y and dz = c.z -. p.z in
  2.0 *. half < theta *. sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz))

let on_sphere rng r =
  let z = (2.0 *. Prng.float rng 1.0) -. 1.0 in
  let phi = Prng.float rng (2.0 *. Float.pi) in
  let s = sqrt (1.0 -. (z *. z)) in
  Vec.make (r *. s *. cos phi) (r *. s *. sin phi) (r *. z)

let plummer rng =
  (* Aarseth-style Plummer sphere sampling (bounded radius). *)
  let rec radius () =
    let x = 0.0001 +. Prng.float rng 0.9999 in
    let r = 1.0 /. sqrt ((x ** (-2.0 /. 3.0)) -. 1.0) in
    if r < 8.0 then r else radius ()
  in
  let r = radius () in
  let pos = on_sphere rng r in
  (* Velocity magnitude by von Neumann rejection against q^2 (1-q^2)^3.5. *)
  let rec q () =
    let x = Prng.float rng 1.0 and y = Prng.float rng 0.1 in
    if y < x *. x *. ((1.0 -. (x *. x)) ** 3.5) then x else q ()
  in
  let ve = sqrt 2.0 /. ((1.0 +. (r *. r)) ** 0.25) in
  let vel = on_sphere rng (q () *. ve) in
  (1.0, pos, vel)

let uniform rng =
  let v () = Prng.float rng 2.0 -. 1.0 in
  (1.0, Vec.make (v ()) (v ()) (v ()),
   Vec.scale 0.05 (Vec.make (v ()) (v ()) (v ())))
