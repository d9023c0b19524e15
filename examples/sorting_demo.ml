(* Bitonic sorting of 65536 keys on an 8x8 mesh (1024 keys per processor),
   comparing access-tree variants against the fixed home strategy and the
   hand-optimized exchanges.

   Run with: dune exec examples/sorting_demo.exe *)

module Network = Diva_simnet.Network
module Dsm = Diva_core.Dsm
module Bitonic = Diva_apps.Bitonic
module Runner = Diva_harness.Runner

let () =
  (* A verified sort through the DIVA layer. *)
  let net = Network.create ~rows:8 ~cols:8 () in
  let dsm = Dsm.create net ~strategy:(Dsm.access_tree ~arity:2 ~leaf_size:4 ()) () in
  let app = Bitonic.setup dsm { Bitonic.keys = 1024; compute = true } in
  for p = 0 to Network.num_nodes net - 1 do
    Network.spawn net p (fun () -> Bitonic.fiber app p)
  done;
  Network.run net;
  Printf.printf "sorted 65536 keys in %d merge&split steps: verified %b\n\n"
    (Bitonic.steps app) (Bitonic.verify app);

  Printf.printf "%-16s %14s %14s\n" "strategy" "congestion (B)" "time (ms)";
  List.iter
    (fun choice ->
      let m = Runner.run_bitonic ~dims:[| 8; 8 |] ~keys:1024 choice in
      Printf.printf "%-16s %14d %14.1f\n" (Runner.name choice)
        m.Runner.congestion_bytes (m.Runner.time /. 1e3))
    [
      Runner.Hand_optimized;
      Runner.Strategy (Dsm.access_tree ~arity:2 ~leaf_size:4 ());
      Runner.Strategy (Dsm.access_tree ~arity:2 ());
      Runner.Strategy (Dsm.access_tree ~arity:4 ());
      Runner.Strategy Dsm.Fixed_home;
    ]
