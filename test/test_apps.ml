(* End-to-end application tests: every application must produce correct
   results under every data-management strategy and under the
   hand-optimized baselines. *)

module Network = Diva_simnet.Network
module Link_stats = Diva_simnet.Link_stats
module Dsm = Diva_core.Dsm
module Matmul = Diva_apps.Matmul
module Matmul_handopt = Diva_apps.Matmul_handopt
module Bitonic = Diva_apps.Bitonic
module Bitonic_handopt = Diva_apps.Bitonic_handopt
module Barnes_hut = Diva_apps.Barnes_hut
module Vec = Diva_apps.Vec
open Helpers

let test_matmul_all_strategies () =
  List.iter
    (fun (name, strat) ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let app = Matmul.setup dsm { Matmul.block = 16; compute = true } in
      run_procs net (fun p -> Matmul.fiber app p);
      Alcotest.(check bool) (name ^ ": matmul verifies") true (Matmul.verify app);
      Alcotest.(check int) (name ^ ": reads counted") (16 * 4 * 2)
        (Matmul.blocks_read app))
    strategies

let test_matmul_handopt () =
  let net = make_net ~rows:4 ~cols:4 () in
  let app = Matmul_handopt.setup net { Matmul_handopt.block = 16; compute = true } in
  run_procs net (fun p -> Matmul_handopt.fiber app p);
  Alcotest.(check bool) "handopt matmul verifies" true (Matmul_handopt.verify app)

let test_matmul_handopt_congestion_optimal () =
  (* The hand-optimized strategy must beat every dynamic strategy on
     congestion (it is provably optimal). *)
  let congestion strat =
    match strat with
    | None ->
        let net = make_net ~rows:8 ~cols:8 () in
        let app =
          Matmul_handopt.setup net { Matmul_handopt.block = 64; compute = false }
        in
        run_procs net (fun p -> Matmul_handopt.fiber app p);
        Link_stats.congestion_bytes (Network.stats net)
    | Some s ->
        let net, dsm = make_dsm ~rows:8 ~cols:8 s in
        let app = Matmul.setup dsm { Matmul.block = 64; compute = false } in
        run_procs net (fun p -> Matmul.fiber app p);
        Link_stats.congestion_bytes (Network.stats net)
  in
  let hand = congestion None in
  let tree = congestion (Some (Dsm.access_tree ~arity:4 ())) in
  let home = congestion (Some Dsm.Fixed_home) in
  Alcotest.(check bool) "handopt <= access tree" true (hand <= tree);
  Alcotest.(check bool) "handopt <= fixed home" true (hand <= home);
  (* And the paper's headline: the access tree beats the fixed home. *)
  Alcotest.(check bool) "access tree < fixed home" true (tree < home)

(* Blocks are held as the 4-byte words the simulated machine moves: a
   1024-element block is 4096 bytes, 512 words plus the header and the
   padding word, where an [int array] would take 1025. *)
let test_matmul_block_footprint () =
  let block = 1024 in
  let _net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let app = Matmul.setup dsm { Matmul.block; compute = false } in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let words =
        Obj.reachable_words (Obj.repr (Dsm.peek (Matmul.block_var app i j)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "block (%d,%d): %d words <= %d" i j words
           ((block / 2) + 2))
        true
        (words <= (block / 2) + 2)
    done
  done

(* Without compute no code reads a block, so a run holds one shared zero
   block: every block value together, less the array listing them, reaches
   at most one block's words. *)
let test_matmul_compute_off_holds_no_data () =
  let cfg = { Matmul.block = 256; compute = false } in
  let bound = (cfg.Matmul.block / 2) + 2 in
  let check what values =
    let words =
      Obj.reachable_words (Obj.repr values) - (Array.length values + 1)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d words <= %d" what words bound)
      true (words <= bound)
  in
  let net, dsm = make_dsm ~rows:8 ~cols:8 (Dsm.access_tree ~arity:4 ()) in
  let app = Matmul.setup dsm cfg in
  run_procs net (fun p -> Matmul.fiber app p);
  check "matmul"
    (Array.init 64 (fun p ->
         Dsm.peek (Matmul.block_var app (p / 8) (p mod 8))));
  Alcotest.(check bool) "matmul verifies" true (Matmul.verify app);
  let net = make_net ~rows:8 ~cols:8 () in
  let app = Matmul_handopt.setup net cfg in
  run_procs net (fun p -> Matmul_handopt.fiber app p);
  check "handopt" (Matmul_handopt.blocks app);
  Alcotest.(check bool) "handopt verifies" true (Matmul_handopt.verify app)

let test_matmul_kernel () =
  let of_list l =
    let x = Bytes.create (4 * List.length l) in
    List.iteri (fun e v -> Bytes.set_int32_le x (4 * e) (Int32.of_int v)) l;
    x
  in
  let h = of_list [ 0; 0; 0; Int32.to_int Int32.max_int - 50 ] in
  Matmul.block_mult_add ~b:2 h (of_list [ 1; 2; 3; 4 ]) (of_list [ 5; 6; 7; 8 ]);
  Alcotest.(check int) "4 bytes per element" 16 (Bytes.length h);
  Alcotest.(check (list int32)) "H += X * Y"
    [ 19l; 22l; 43l; Int32.max_int ]
    (List.init 4 (fun e -> Bytes.get_int32_le h (4 * e)))

(* With compute, every entry of the square (at most n * 99 * 99 for side
   n = q * b) must fit a 32-bit word. On a 2x2 mesh the limit is b = 109554;
   one step past it, both setups refuse before allocating a block of 48 GB. *)
let test_matmul_range_guard () =
  let at = 109_554 and past = 109_555 in
  let cfg b compute = { Matmul.block = b * b; compute } in
  Alcotest.(check int) "at the limit" at (Matmul.block_side ~q:2 (cfg at true));
  Alcotest.(check int) "no limit without compute" past
    (Matmul.block_side ~q:2 (cfg past false));
  let rejects name f =
    let before = Gc.allocated_bytes () in
    (match f () with
    | () -> Alcotest.failf "%s: accepted side %d" name (2 * past)
    | exception Invalid_argument msg ->
        Alcotest.(check string) (name ^ " names the limit")
          "Matmul: matrix side 219110 exceeds 219108, the largest whose \
           square fits 32-bit words"
          msg);
    let allocated = Gc.allocated_bytes () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "%s allocated %.0f bytes" name allocated)
      true (allocated < 65536.)
  in
  rejects "block_side" (fun () -> ignore (Matmul.block_side ~q:2 (cfg past true)));
  let _net, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:4 ()) in
  rejects "Matmul.setup" (fun () -> ignore (Matmul.setup dsm (cfg past true)));
  let net = make_net ~rows:2 ~cols:2 () in
  rejects "Matmul_handopt.setup" (fun () ->
      ignore (Matmul_handopt.setup net (cfg past true)))

let test_bitonic_all_strategies () =
  List.iter
    (fun (name, strat) ->
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let app = Bitonic.setup dsm { Bitonic.keys = 8; compute = true } in
      run_procs net (fun p -> Bitonic.fiber app p);
      Alcotest.(check bool) (name ^ ": bitonic sorts") true (Bitonic.verify app))
    strategies

let test_bitonic_2x4 () =
  (* Non-square but power-of-two processor count. *)
  let net, dsm = make_dsm ~rows:2 ~cols:4 (Dsm.access_tree ~arity:2 ()) in
  let app = Bitonic.setup dsm { Bitonic.keys = 16; compute = false } in
  run_procs net (fun p -> Bitonic.fiber app p);
  Alcotest.(check bool) "bitonic 2x4 sorts" true (Bitonic.verify app)

let test_bitonic_handopt () =
  let net = make_net ~rows:4 ~cols:4 () in
  let app = Bitonic_handopt.setup net { Bitonic_handopt.keys = 32; compute = true } in
  run_procs net (fun p -> Bitonic_handopt.fiber app p);
  Alcotest.(check bool) "handopt bitonic sorts" true (Bitonic_handopt.verify app)

let test_bitonic_steps () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:2 ()) in
  let app = Bitonic.setup dsm { Bitonic.keys = 4; compute = false } in
  ignore net;
  (* 16 wires: log P = 4 phases, 1+2+3+4 = 10 steps. *)
  Alcotest.(check int) "circuit depth" 10 (Bitonic.steps app)

let test_merge_split () =
  let a = [| 1; 3; 5; 7 |] and b = [| 2; 4; 6; 8 |] in
  Alcotest.(check (array int)) "lower half" [| 1; 2; 3; 4 |]
    (Bitonic.merge_split ~keep_lower:true a b);
  Alcotest.(check (array int)) "upper half" [| 5; 6; 7; 8 |]
    (Bitonic.merge_split ~keep_lower:false a b);
  (* Duplicates must be preserved across the two halves. *)
  let c = [| 1; 1; 2; 2 |] and d = [| 1; 2; 2; 3 |] in
  let low = Bitonic.merge_split ~keep_lower:true c d in
  let high = Bitonic.merge_split ~keep_lower:false c d in
  let merged = Array.append low high in
  let expect = Array.append c d in
  Array.sort compare expect;
  Alcotest.(check (array int)) "multiset preserved" expect merged

(* --- Barnes-Hut ----------------------------------------------------- *)

let bh_config ?(n = 48) ?(theta = 1.0) ?(steps = 3) ?(warmup = 1) () =
  { (Barnes_hut.default_config ~nbodies:n) with
    Barnes_hut.theta; steps; warmup }

let rel_err a b =
  let d = Vec.norm (Vec.sub a b) in
  let s = Float.max (Vec.norm a) (Vec.norm b) in
  if s < 1e-12 then d else d /. s

let test_bh_exact_matches_reference () =
  (* theta = 0 never approximates, so the simulated parallel run must
     reproduce the sequential O(N^2) integration up to rounding. *)
  let cfg = bh_config ~n:40 ~theta:0.0 ~steps:2 ~warmup:0 () in
  let net, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:4 ()) in
  let app = Barnes_hut.setup dsm cfg in
  run_procs net (fun p -> Barnes_hut.fiber app p);
  let got = Barnes_hut.final_bodies app in
  let want = Barnes_hut.reference cfg in
  Array.iteri
    (fun i (_, gp, gv) ->
      let _, wp, wv = want.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "body %d position (err %g)" i (rel_err gp wp))
        true
        (rel_err gp wp < 1e-6);
      Alcotest.(check bool) (Printf.sprintf "body %d velocity" i) true
        (rel_err gv wv < 1e-6))
    got

let test_bh_exact_all_strategies () =
  let cfg = bh_config ~n:32 ~theta:0.0 ~steps:2 ~warmup:0 () in
  let want = Barnes_hut.reference cfg in
  List.iter
    (fun (name, strat) ->
      let net, dsm = make_dsm ~rows:2 ~cols:2 strat in
      let app = Barnes_hut.setup dsm cfg in
      run_procs net (fun p -> Barnes_hut.fiber app p);
      let got = Barnes_hut.final_bodies app in
      Array.iteri
        (fun i (_, gp, _) ->
          let _, wp, _ = want.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: body %d" name i)
            true
            (rel_err gp wp < 1e-6))
        got)
    strategies

let test_bh_theta_approximation_close () =
  (* With theta = 0.5 the approximation error over a few steps stays small
     relative to the motion. *)
  let cfg = bh_config ~n:64 ~theta:0.5 ~steps:3 ~warmup:0 () in
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let app = Barnes_hut.setup dsm cfg in
  run_procs net (fun p -> Barnes_hut.fiber app p);
  let got = Barnes_hut.final_bodies app in
  let want = Barnes_hut.reference cfg in
  let worst = ref 0.0 in
  Array.iteri
    (fun i (_, gp, _) ->
      let _, wp, _ = want.(i) in
      worst := Float.max !worst (rel_err gp wp))
    got;
  Alcotest.(check bool)
    (Printf.sprintf "approximation close (worst %g)" !worst)
    true (!worst < 0.05)

let test_bh_mass_conserved () =
  let cfg = bh_config ~n:48 ~steps:2 ~warmup:0 () in
  let net, dsm = make_dsm ~rows:4 ~cols:4 Dsm.Fixed_home in
  let app = Barnes_hut.setup dsm cfg in
  run_procs net (fun p -> Barnes_hut.fiber app p);
  let total = Array.fold_left (fun acc (m, _, _) -> acc +. m) 0.0
      (Barnes_hut.final_bodies app)
  in
  Alcotest.(check (float 1e-9)) "total mass" 1.0 total

let test_bh_intervals_structure () =
  let cfg = bh_config ~n:32 ~steps:3 ~warmup:1 () in
  let net, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:2 ()) in
  let app = Barnes_hut.setup dsm cfg in
  run_procs net (fun p -> Barnes_hut.fiber app p);
  let ivs = Barnes_hut.intervals app in
  (* 2 measured steps x 6 phases. *)
  Alcotest.(check int) "interval count" 12 (List.length ivs);
  List.iter
    (fun iv ->
      Alcotest.(check bool) "non-negative duration" true
        (iv.Barnes_hut.i_time >= 0.0);
      Alcotest.(check bool) "measured steps only" true
        (iv.Barnes_hut.i_step >= 1))
    ivs;
  (* The force phase must dominate the build phase in computation. *)
  let sum_phase ph f =
    List.fold_left
      (fun acc iv -> if iv.Barnes_hut.i_phase = ph then acc +. f iv else acc)
      0.0 ivs
  in
  let compute_of iv = Array.fold_left ( +. ) 0.0 iv.Barnes_hut.i_compute in
  Alcotest.(check bool) "force compute dominates" true
    (sum_phase Barnes_hut.Force compute_of > sum_phase Barnes_hut.Build compute_of)

let test_bh_determinism () =
  let run () =
    let cfg = bh_config ~n:40 ~steps:2 ~warmup:0 () in
    let net, dsm = make_dsm ~rows:2 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
    let app = Barnes_hut.setup dsm cfg in
    run_procs net (fun p -> Barnes_hut.fiber app p);
    (Barnes_hut.final_bodies app, Network.now net,
     Link_stats.congestion_msgs (Network.stats net))
  in
  let a1, t1, c1 = run () in
  let a2, t2, c2 = run () in
  Alcotest.(check bool) "same bodies" true (a1 = a2);
  Alcotest.(check (float 0.0)) "same end time" t1 t2;
  Alcotest.(check int) "same congestion" c1 c2

(* Allocation gate on a small Barnes-Hut run (2x2 mesh, 200 bodies, two
   steps, 4-ary tree), in minor words per simulated event. The force
   walk allocated a
   [Vec.sub], a boxed norm, an [Array.iter] closure and a boxed flop
   charge per visited cell, and two vectors per interaction: 122.97
   words per event. Summing into an unboxed accumulator with precomputed
   charges: 51.88 (gate 54.5). *)
let test_bh_allocation_gate () =
  let cfg = bh_config ~n:200 ~steps:2 ~warmup:0 () in
  let net, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:4 ()) in
  let app = Barnes_hut.setup dsm cfg in
  let sim = Network.sim net in
  let w0 = Gc.minor_words () and e0 = Diva_simnet.Sim.events_executed sim in
  run_procs net (fun p -> Barnes_hut.fiber app p);
  let per_event =
    (Gc.minor_words () -. w0)
    /. float_of_int (Diva_simnet.Sim.events_executed sim - e0)
  in
  if per_event > 54.5 then
    Alcotest.failf "%.2f minor words per event (gate 54.5)" per_event

let test_bh_uniform_distribution () =
  let cfg =
    { (bh_config ~n:40 ~theta:0.0 ~steps:1 ~warmup:0 ()) with
      Barnes_hut.distribution = `Uniform }
  in
  let net, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:4 ()) in
  let app = Barnes_hut.setup dsm cfg in
  run_procs net (fun p -> Barnes_hut.fiber app p);
  let got = Barnes_hut.final_bodies app in
  let want = Barnes_hut.reference cfg in
  Array.iteri
    (fun i (_, gp, _) ->
      let _, wp, _ = want.(i) in
      Alcotest.(check bool) (Printf.sprintf "uniform body %d" i) true
        (rel_err gp wp < 1e-6))
    got

let test_bh_access_tree_beats_fixed_home_congestion () =
  let cfg = bh_config ~n:128 ~steps:3 ~warmup:1 () in
  let congestion strat =
    let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
    let app = Barnes_hut.setup dsm cfg in
    run_procs net (fun p -> Barnes_hut.fiber app p);
    Link_stats.congestion_msgs (Network.stats net)
  in
  let tree = congestion (Dsm.access_tree ~arity:4 ()) in
  let home = congestion Dsm.Fixed_home in
  Alcotest.(check bool)
    (Printf.sprintf "4-ary (%d) < fixed home (%d)" tree home)
    true (tree < home)

(* --- property tests --------------------------------------------------- *)

let prop_bitonic_sorts_random =
  QCheck.Test.make ~name:"bitonic sorts random configurations" ~count:12
    QCheck.(triple (int_range 0 2) (int_range 1 64) (int_range 0 6))
    (fun (mesh_i, keys, strat_i) ->
      let rows, cols = List.nth [ (2, 2); (2, 4); (4, 4) ] mesh_i in
      let _, strat = List.nth strategies strat_i in
      let net, dsm = make_dsm ~rows ~cols strat in
      let app = Bitonic.setup dsm { Bitonic.keys; compute = false } in
      run_procs net (fun p -> Bitonic.fiber app p);
      Bitonic.verify app)

let prop_matmul_random_blocks =
  QCheck.Test.make ~name:"matmul verifies for random block sizes" ~count:8
    QCheck.(pair (int_range 1 8) (int_range 0 6))
    (fun (side, strat_i) ->
      let block = side * side in
      let _, strat = List.nth strategies strat_i in
      let net, dsm = make_dsm ~rows:4 ~cols:4 strat in
      let app = Matmul.setup dsm { Matmul.block; compute = true } in
      run_procs net (fun p -> Matmul.fiber app p);
      Matmul.verify app)

let prop_bh_mass_and_sanity =
  QCheck.Test.make ~name:"BH conserves mass for random configurations"
    ~count:6
    QCheck.(pair (int_range 16 150) (int_range 0 1000))
    (fun (n, seed) ->
      let cfg =
        { (Barnes_hut.default_config ~nbodies:n) with
          Barnes_hut.steps = 2; warmup = 0; seed = seed + 1 }
      in
      let net, dsm = make_dsm ~rows:2 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
      let app = Barnes_hut.setup dsm cfg in
      run_procs net (fun p -> Barnes_hut.fiber app p);
      let bodies = Barnes_hut.final_bodies app in
      let mass = Array.fold_left (fun a (m, _, _) -> a +. m) 0.0 bodies in
      let finite =
        Array.for_all
          (fun (_, p, v) ->
            Float.is_finite (Vec.norm p) && Float.is_finite (Vec.norm v))
          bodies
      in
      Float.abs (mass -. 1.0) < 1e-9 && finite)

let test_bh_costzones_balance () =
  (* With many bodies per processor, the costzones partitioning must keep
     the force-phase computation roughly balanced. *)
  let cfg =
    { (Barnes_hut.default_config ~nbodies:1024) with
      Barnes_hut.steps = 3; warmup = 1 }
  in
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let app = Barnes_hut.setup dsm cfg in
  run_procs net (fun p -> Barnes_hut.fiber app p);
  let force =
    List.filter
      (fun iv -> iv.Barnes_hut.i_phase = Barnes_hut.Force)
      (Barnes_hut.intervals app)
  in
  List.iter
    (fun iv ->
      let c = iv.Barnes_hut.i_compute in
      let mean =
        Array.fold_left ( +. ) 0.0 c /. float_of_int (Array.length c)
      in
      let worst = Array.fold_left Float.max 0.0 c in
      Alcotest.(check bool)
        (Printf.sprintf "balanced (max %.0f vs mean %.0f)" worst mean)
        true
        (worst < 3.0 *. mean))
    force

let suite =
  [
    Alcotest.test_case "matmul all strategies" `Quick test_matmul_all_strategies;
    Alcotest.test_case "matmul handopt" `Quick test_matmul_handopt;
    Alcotest.test_case "matmul congestion optimality" `Quick
      test_matmul_handopt_congestion_optimal;
    Alcotest.test_case "matmul block footprint" `Quick test_matmul_block_footprint;
    Alcotest.test_case "matmul without compute holds no data" `Quick
      test_matmul_compute_off_holds_no_data;
    Alcotest.test_case "matmul kernel" `Quick test_matmul_kernel;
    Alcotest.test_case "matmul 32-bit range guard" `Quick test_matmul_range_guard;
    Alcotest.test_case "bitonic all strategies" `Quick test_bitonic_all_strategies;
    Alcotest.test_case "bitonic 2x4 mesh" `Quick test_bitonic_2x4;
    Alcotest.test_case "bitonic handopt" `Quick test_bitonic_handopt;
    Alcotest.test_case "bitonic circuit depth" `Quick test_bitonic_steps;
    Alcotest.test_case "merge&split" `Quick test_merge_split;
    Alcotest.test_case "BH exact vs reference" `Quick test_bh_exact_matches_reference;
    Alcotest.test_case "BH exact all strategies" `Quick test_bh_exact_all_strategies;
    Alcotest.test_case "BH theta approximation" `Quick
      test_bh_theta_approximation_close;
    Alcotest.test_case "BH mass conserved" `Quick test_bh_mass_conserved;
    Alcotest.test_case "BH intervals" `Quick test_bh_intervals_structure;
    Alcotest.test_case "BH determinism" `Quick test_bh_determinism;
    Alcotest.test_case "BH allocation per event" `Quick
      test_bh_allocation_gate;
    Alcotest.test_case "BH uniform distribution" `Quick test_bh_uniform_distribution;
    Alcotest.test_case "BH congestion ordering" `Quick
      test_bh_access_tree_beats_fixed_home_congestion;
    QCheck_alcotest.to_alcotest prop_bitonic_sorts_random;
    QCheck_alcotest.to_alcotest prop_matmul_random_blocks;
    QCheck_alcotest.to_alcotest prop_bh_mass_and_sanity;
    Alcotest.test_case "BH costzones balance" `Quick test_bh_costzones_balance;
  ]

(* --- cross-implementation agreement ----------------------------------- *)

let test_bitonic_dsm_matches_handopt () =
  (* Both implementations sort the same deterministic input; their final
     wire contents must be identical. *)
  let net1, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:2 ()) in
  let a1 = Bitonic.setup dsm { Bitonic.keys = 64; compute = false } in
  run_procs net1 (fun p -> Bitonic.fiber a1 p);
  let net2 = make_net ~rows:4 ~cols:4 () in
  let a2 = Bitonic_handopt.setup net2 { Bitonic_handopt.keys = 64; compute = false } in
  run_procs net2 (fun p -> Bitonic_handopt.fiber a2 p);
  Alcotest.(check bool) "dsm sorts" true (Bitonic.verify a1);
  Alcotest.(check bool) "handopt sorts" true (Bitonic_handopt.verify a2)

let test_matmul_dsm_matches_handopt () =
  let net1, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let a1 = Matmul.setup dsm { Matmul.block = 16; compute = true } in
  run_procs net1 (fun p -> Matmul.fiber a1 p);
  let net2 = make_net ~rows:4 ~cols:4 () in
  let a2 = Matmul_handopt.setup net2 { Matmul_handopt.block = 16; compute = true } in
  run_procs net2 (fun p -> Matmul_handopt.fiber a2 p);
  (* Both verify against the same sequential oracle, hence agree. *)
  Alcotest.(check bool) "dsm verifies" true (Matmul.verify a1);
  Alcotest.(check bool) "handopt verifies" true (Matmul_handopt.verify a2)

let suite =
  suite
  @ [
      Alcotest.test_case "bitonic dsm vs handopt" `Quick
        test_bitonic_dsm_matches_handopt;
      Alcotest.test_case "matmul dsm vs handopt" `Quick
        test_matmul_dsm_matches_handopt;
    ]
