(* d-dimensional meshes: the theory paper's general setting. Routing,
   decomposition and the full DSM stack must work unchanged on 3-D (and
   higher) meshes. *)

module Mesh = Diva_mesh.Mesh
module Deco = Diva_mesh.Decomposition
module Network = Diva_simnet.Network
module Link_stats = Diva_simnet.Link_stats
module Dsm = Diva_core.Dsm
module Barnes_hut = Diva_apps.Barnes_hut
module Bitonic = Diva_apps.Bitonic
module Vec = Diva_apps.Vec
module Prng = Diva_util.Prng

let run_procs net f =
  for p = 0 to Network.num_nodes net - 1 do
    Network.spawn net p (fun () -> f p)
  done;
  Network.run net

let test_3d_coords_roundtrip () =
  let m = Mesh.create_nd ~dims:[| 3; 4; 5 |] in
  Alcotest.(check int) "num nodes" 60 (Mesh.num_nodes m);
  for v = 0 to 59 do
    Alcotest.(check int) "roundtrip" v (Mesh.node_at_nd m (Mesh.coords_nd m v))
  done

let test_3d_route_properties () =
  let m = Mesh.create_nd ~dims:[| 4; 4; 4 |] in
  let rng = Prng.create ~seed:1 in
  for _ = 1 to 300 do
    let src = Prng.int rng 64 and dst = Prng.int rng 64 in
    let route = Helpers.route m ~src ~dst in
    Alcotest.(check int) "shortest" (Helpers.distance m src dst) (List.length route);
    (* Connectivity. *)
    let cur = ref src in
    List.iter
      (fun l ->
        let a, b = Mesh.link_endpoints m l in
        Alcotest.(check int) "chained" !cur a;
        cur := b)
      route;
    Alcotest.(check int) "reaches dst" dst !cur
  done

let test_3d_route_dimension_order () =
  (* Last dimension is adjusted first; once a dimension changes, later
     (higher-index) dimensions must never change again. *)
  let m = Mesh.create_nd ~dims:[| 3; 3; 3 |] in
  let rng = Prng.create ~seed:2 in
  for _ = 1 to 200 do
    let src = Prng.int rng 27 and dst = Prng.int rng 27 in
    let dims_seen = ref [] in
    List.iter
      (fun l ->
        let a, b = Mesh.link_endpoints m l in
        let ca = Mesh.coords_nd m a and cb = Mesh.coords_nd m b in
        let dim = ref (-1) in
        Array.iteri (fun k x -> if x <> cb.(k) then dim := k) ca;
        dims_seen := !dim :: !dims_seen)
      (Helpers.route m ~src ~dst);
    (* dims_seen is collected newest-first; reversed it must be
       non-increasing (dimension d, then d-1, ...). *)
    let order = List.rev !dims_seen in
    let rec non_increasing = function
      | a :: (b :: _ as rest) -> a >= b && non_increasing rest
      | _ -> true
    in
    Alcotest.(check bool) "dimension order" true (non_increasing order)
  done

let test_1d_mesh () =
  (* A path network is just a 1-dimensional mesh. *)
  let m = Mesh.create_nd ~dims:[| 8 |] in
  Alcotest.(check int) "distance" 7 (Helpers.distance m 0 7);
  Alcotest.(check int) "route length" 7 (List.length (Helpers.route m ~src:0 ~dst:7))

let test_3d_decomposition () =
  let m = Mesh.create_nd ~dims:[| 4; 4; 4 |] in
  List.iter
    (fun (arity, leaf_size) ->
      let d = Deco.build m ~arity ~leaf_size in
      (* One leaf per processor; children partition parents. *)
      let leaves = ref 0 in
      for id = 0 to d.Deco.num_tree_nodes - 1 do
        if Deco.is_leaf d id then incr leaves
        else begin
          let total =
            Array.fold_left
              (fun acc k -> acc + Helpers.submesh_size d.Deco.submesh.(k))
              0 d.Deco.children.(id)
          in
          Alcotest.(check int) "partition" (Helpers.submesh_size d.Deco.submesh.(id)) total
        end
      done;
      Alcotest.(check int) "leaves" 64 !leaves)
    [ (Deco.Two, 1); (Deco.Four, 1); (Deco.Two, 8) ];
  (* The 2-ary decomposition of a 4x4x4 mesh has height log2(64) = 6. *)
  let d = Deco.build m ~arity:Deco.Two ~leaf_size:1 in
  Alcotest.(check int) "height" 6 (Helpers.tree_height d)

let test_3d_snake_locality () =
  let m = Mesh.create_nd ~dims:[| 4; 4; 4 |] in
  let order = Deco.snake_order m in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 64 Fun.id) sorted;
  (* The decomposition order is not a Hilbert curve: single steps across
     a split boundary may be long, but consecutive leaves are close on
     average because every contiguous range maps into a subcube. *)
  let total = ref 0 in
  for i = 0 to 62 do
    total := !total + Helpers.distance m order.(i) order.(i + 1)
  done;
  let mean = float_of_int !total /. 63.0 in
  Alcotest.(check bool)
    (Printf.sprintf "consecutive nearby on average (%.2f)" mean)
    true (mean <= 2.5)

let strategies_3d =
  [
    ("2-ary", Dsm.access_tree ~arity:2 ());
    ("4-ary", Dsm.access_tree ~arity:4 ());
    ("2-8-ary", Dsm.access_tree ~arity:2 ~leaf_size:8 ());
    ("fixed-home", Dsm.Fixed_home);
  ]

let test_3d_dsm_coherence () =
  List.iter
    (fun (name, strat) ->
      let net = Network.create_nd ~dims:[| 2; 3; 4 |] () in
      let dsm = Dsm.create net ~strategy:strat () in
      let v = Dsm.create_var dsm ~owner:5 ~size:64 0 in
      run_procs net (fun p ->
          Alcotest.(check int) (name ^ ": initial") 0 (Dsm.read dsm p v);
          Dsm.barrier dsm p;
          if p = 13 then Dsm.write dsm p v 99;
          Dsm.barrier dsm p;
          Alcotest.(check int) (name ^ ": after write") 99 (Dsm.read dsm p v)))
    strategies_3d

let test_3d_locks_and_reduce () =
  let net = Network.create_nd ~dims:[| 2; 2; 4 |] () in
  let dsm = Dsm.create net ~strategy:(Dsm.access_tree ~arity:2 ()) () in
  let v = Dsm.create_var dsm ~owner:0 ~size:16 0 in
  let r = Dsm.reducer dsm ~combine:( + ) ~size:8 in
  let sum = ref 0 in
  run_procs net (fun p ->
      Dsm.lock dsm p v;
      Dsm.write dsm p v (Dsm.read dsm p v + 1);
      Dsm.unlock dsm p v;
      let s = Dsm.reduce dsm p r 1 in
      if p = 0 then sum := s);
  Alcotest.(check int) "counter" 16 (Dsm.peek v);
  Alcotest.(check int) "reduce" 16 !sum

let test_3d_barnes_hut_exact () =
  (* The full application stack on a 3-D network, verified against the
     sequential reference. *)
  let cfg =
    { (Barnes_hut.default_config ~nbodies:32) with
      Barnes_hut.theta = 0.0; steps = 2; warmup = 0 }
  in
  let net = Network.create_nd ~dims:[| 2; 2; 2 |] () in
  let dsm = Dsm.create net ~strategy:(Dsm.access_tree ~arity:2 ()) () in
  let app = Barnes_hut.setup dsm cfg in
  run_procs net (fun p -> Barnes_hut.fiber app p);
  let got = Barnes_hut.final_bodies app in
  let want = Barnes_hut.reference cfg in
  Array.iteri
    (fun i (_, gp, _) ->
      let _, wp, _ = want.(i) in
      let err = Vec.norm (Vec.sub gp wp) /. Float.max 1e-12 (Vec.norm wp) in
      Alcotest.(check bool) (Printf.sprintf "body %d" i) true (err < 1e-6))
    got

let test_3d_bitonic () =
  let net = Network.create_nd ~dims:[| 2; 2; 4 |] () in
  let dsm = Dsm.create net ~strategy:(Dsm.access_tree ~arity:2 ()) () in
  let app = Bitonic.setup dsm { Bitonic.keys = 16; compute = false } in
  run_procs net (fun p -> Bitonic.fiber app p);
  Alcotest.(check bool) "3-D bitonic sorts" true (Bitonic.verify app)

let test_3d_richer_network_lowers_congestion () =
  (* 64 processors as 8x8 (2-D) vs 4x4x4 (3-D): the 3-D mesh has more links
     and shorter routes, so the same broadcast workload congests less. *)
  let congestion net =
    let dsm = Dsm.create net ~strategy:(Dsm.access_tree ~arity:2 ()) () in
    let v = Dsm.create_var dsm ~owner:0 ~size:1024 0 in
    run_procs net (fun p -> ignore (Dsm.read dsm p v));
    Link_stats.congestion_bytes (Network.stats net)
  in
  let c2 = congestion (Network.create ~rows:8 ~cols:8 ()) in
  let c3 = congestion (Network.create_nd ~dims:[| 4; 4; 4 |] ()) in
  Alcotest.(check bool)
    (Printf.sprintf "3-D (%d) <= 2-D (%d)" c3 c2)
    true (c3 <= c2)

let suite =
  [
    Alcotest.test_case "3D coords roundtrip" `Quick test_3d_coords_roundtrip;
    Alcotest.test_case "3D route properties" `Quick test_3d_route_properties;
    Alcotest.test_case "3D dimension order" `Quick test_3d_route_dimension_order;
    Alcotest.test_case "1D mesh" `Quick test_1d_mesh;
    Alcotest.test_case "3D decomposition" `Quick test_3d_decomposition;
    Alcotest.test_case "3D snake locality" `Quick test_3d_snake_locality;
    Alcotest.test_case "3D DSM coherence" `Quick test_3d_dsm_coherence;
    Alcotest.test_case "3D locks and reduce" `Quick test_3d_locks_and_reduce;
    Alcotest.test_case "3D Barnes-Hut exact" `Quick test_3d_barnes_hut_exact;
    Alcotest.test_case "3D bitonic" `Quick test_3d_bitonic;
    Alcotest.test_case "3D lowers congestion" `Quick
      test_3d_richer_network_lowers_congestion;
  ]
