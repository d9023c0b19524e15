(* Unit and property tests for the N-body geometry/physics primitives. *)

module Geom = Diva_apps.Nbody_geom
module Vec = Diva_apps.Vec
module Prng = Diva_util.Prng

let vclose ?(eps = 1e-12) a b = Vec.norm (Vec.sub a b) < eps

(* Is [p] inside the closed cube of half-side [half] around [centre]? *)
let in_cube ~centre ~half (p : Vec.t) =
  Float.abs (p.Vec.x -. centre.Vec.x) <= half
  && Float.abs (p.Vec.y -. centre.Vec.y) <= half
  && Float.abs (p.Vec.z -. centre.Vec.z) <= half

let test_vec_algebra () =
  let a = Vec.make 1.0 2.0 3.0 and b = Vec.make (-1.0) 0.5 2.0 in
  Alcotest.(check bool) "add/sub roundtrip" true
    (vclose a (Vec.sub (Vec.add a b) b));
  Alcotest.(check (float 1e-12)) "norm" (sqrt 14.0) (Vec.norm a);
  Alcotest.(check bool) "scale distributes" true
    (vclose (Vec.scale 2.0 (Vec.add a b)) (Vec.add (Vec.scale 2.0 a) (Vec.scale 2.0 b)));
  Alcotest.(check bool) "pointwise min/max" true
    (vclose (Vec.add (Vec.min_pointwise a b) (Vec.max_pointwise a b)) (Vec.add a b))

let test_octant_cases () =
  let c = Vec.zero in
  Alcotest.(check int) "+++" 7 (Geom.octant c (Vec.make 1.0 1.0 1.0));
  Alcotest.(check int) "---" 0 (Geom.octant c (Vec.make (-1.0) (-1.0) (-1.0)));
  Alcotest.(check int) "+--" 1 (Geom.octant c (Vec.make 1.0 (-1.0) (-1.0)));
  Alcotest.(check int) "-+-" 2 (Geom.octant c (Vec.make (-1.0) 1.0 (-1.0)));
  Alcotest.(check int) "--+" 4 (Geom.octant c (Vec.make (-1.0) (-1.0) 1.0));
  (* Boundary goes to the high side. *)
  Alcotest.(check int) "boundary" 7 (Geom.octant c Vec.zero)

let prop_octant_consistent_with_child_centre =
  QCheck.Test.make ~name:"points stay in their octant's child cube" ~count:500
    QCheck.(triple (float_range (-10.) 10.) (float_range (-10.) 10.)
              (float_range (-10.) 10.))
    (fun (x, y, z) ->
      let centre = Vec.make 0.5 (-0.25) 1.0 and half = 16.0 in
      let p = Vec.make x y z in
      let o = Geom.octant centre p in
      let cc = Geom.child_centre centre half o in
      (* p lies in the cube of the child octant it is assigned to. *)
      in_cube ~centre:cc ~half:(half /. 2.0) p
      || not (in_cube ~centre ~half p))

let test_child_centres_partition () =
  let centre = Vec.make 1.0 2.0 3.0 and half = 4.0 in
  (* All 8 child centres are distinct and inside the parent cube. *)
  let centres = List.init 8 (Geom.child_centre centre half) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "inside parent" true (in_cube ~centre ~half c))
    centres;
  let uniq = List.sort_uniq compare centres in
  Alcotest.(check int) "8 distinct octants" 8 (List.length uniq);
  (* Their mean is the parent centre. *)
  let mean = Vec.scale 0.125 (List.fold_left Vec.add Vec.zero centres) in
  Alcotest.(check bool) "centred" true (vclose mean centre)

let test_bounding_cube () =
  let pts = [| Vec.make 0.0 0.0 0.0; Vec.make 2.0 1.0 (-1.0); Vec.make 1.0 3.0 0.5 |] in
  let centre, half = Geom.bounding_cube pts in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "contains all points" true
        (in_cube ~centre ~half p))
    pts;
  (* Not wastefully large. *)
  Alcotest.(check bool) "tight-ish" true (half < 3.0)

(* One attraction on its own, summed into a zero accumulator. *)
let attraction ~pos ~m ~at =
  let a = Geom.acc () in
  Geom.add_attraction a ~pos ~m ~at;
  Geom.acc_vec a

let test_attraction_properties () =
  let p1 = Vec.make 0.0 0.0 0.0 and p2 = Vec.make 2.0 0.0 0.0 in
  let a12 = attraction ~pos:p1 ~m:3.0 ~at:p2 in
  (* Points toward the mass. *)
  Alcotest.(check bool) "direction" true (a12.Vec.x > 0.0);
  Alcotest.(check (float 1e-12)) "no lateral component" 0.0
    (Float.abs a12.Vec.y +. Float.abs a12.Vec.z);
  (* Linear in the mass. *)
  let a2 = attraction ~pos:p1 ~m:6.0 ~at:p2 in
  Alcotest.(check (float 1e-9)) "mass linear" (2.0 *. Vec.norm a12) (Vec.norm a2);
  (* Softening keeps the self-limit finite. *)
  let self = attraction ~pos:p1 ~m:1.0 ~at:p1 in
  Alcotest.(check (float 0.0)) "softened at zero distance" 0.0 (Vec.norm self);
  (* ~1/r^2 decay far away. *)
  let near = Vec.norm (attraction ~pos:p1 ~m:1.0 ~at:(Vec.make 1.0 0.0 0.0)) in
  let far = Vec.norm (attraction ~pos:p1 ~m:1.0 ~at:(Vec.make 2.0 0.0 0.0)) in
  Alcotest.(check bool) "decay" true (near > 3.5 *. far && near < 4.5 *. far)

let prop_attraction_antisymmetric =
  QCheck.Test.make ~name:"equal masses attract symmetrically" ~count:200
    QCheck.(pair (triple (float_range (-5.) 5.) (float_range (-5.) 5.)
                    (float_range (-5.) 5.))
              (triple (float_range (-5.) 5.) (float_range (-5.) 5.)
                 (float_range (-5.) 5.)))
    (fun ((x1, y1, z1), (x2, y2, z2)) ->
      let p1 = Vec.make x1 y1 z1 and p2 = Vec.make x2 y2 z2 in
      let a = attraction ~pos:p1 ~m:1.0 ~at:p2 in
      let b = attraction ~pos:p2 ~m:1.0 ~at:p1 in
      Vec.norm (Vec.add a b) < 1e-9 *. (1.0 +. Vec.norm a))

(* The opening test computes the distance as [Vec.norm] does, bit for
   bit. *)
let prop_far_enough_is_vec_norm =
  let coord = QCheck.float_range (-5.) 5. in
  QCheck.Test.make ~name:"opening test uses Vec.norm's distance" ~count:500
    QCheck.(pair (triple coord coord coord) (triple coord coord coord))
    (fun ((x1, y1, z1), (x2, y2, z2)) ->
      let com = Vec.make x1 y1 z1 and pos = Vec.make x2 y2 z2 in
      let d = Vec.norm (Vec.sub com pos) in
      let half = d /. 2.0 in
      List.for_all
        (fun (half, theta) ->
          Geom.far_enough ~theta ~half ~com ~pos
          = (2.0 *. half < theta *. d))
        [ (half, 1.0); (Float.succ half, 1.0); (Float.pred half, 1.0);
          (half, 0.5) ])

let test_plummer_distribution () =
  let rng = Prng.create ~seed:7 in
  let n = 2000 in
  let bodies = Array.init n (fun _ -> Geom.plummer rng) in
  (* Radii bounded by construction, centre of mass near the origin. *)
  Array.iter
    (fun (w, p, _) ->
      Alcotest.(check (float 0.0)) "unit weight" 1.0 w;
      Alcotest.(check bool) "radius bounded" true (Vec.norm p < 8.0))
    bodies;
  let com =
    Vec.scale (1.0 /. float_of_int n)
      (Array.fold_left (fun acc (_, p, _) -> Vec.add acc p) Vec.zero bodies)
  in
  Alcotest.(check bool) "roughly centred" true (Vec.norm com < 0.25);
  (* Half-mass radius of the Plummer model is ~1.3a; loose sanity check. *)
  let radii = Array.map (fun (_, p, _) -> Vec.norm p) bodies in
  Array.sort compare radii;
  let median = radii.(n / 2) in
  Alcotest.(check bool)
    (Printf.sprintf "median radius plausible (%.2f)" median)
    true
    (median > 0.8 && median < 2.0)

let test_uniform_distribution_bounds () =
  let rng = Prng.create ~seed:8 in
  for _ = 1 to 500 do
    let _, p, v = Geom.uniform rng in
    Alcotest.(check bool) "position in cube" true
      (in_cube ~centre:Vec.zero ~half:1.0 p);
    Alcotest.(check bool) "small velocity" true (Vec.norm v < 0.1)
  done

let suite =
  [
    Alcotest.test_case "vec algebra" `Quick test_vec_algebra;
    Alcotest.test_case "octant cases" `Quick test_octant_cases;
    QCheck_alcotest.to_alcotest prop_octant_consistent_with_child_centre;
    Alcotest.test_case "child centres partition" `Quick test_child_centres_partition;
    Alcotest.test_case "bounding cube" `Quick test_bounding_cube;
    Alcotest.test_case "attraction properties" `Quick test_attraction_properties;
    QCheck_alcotest.to_alcotest prop_attraction_antisymmetric;
    QCheck_alcotest.to_alcotest prop_far_enough_is_vec_norm;
    Alcotest.test_case "plummer distribution" `Quick test_plummer_distribution;
    Alcotest.test_case "uniform distribution" `Quick test_uniform_distribution_bounds;
  ]
