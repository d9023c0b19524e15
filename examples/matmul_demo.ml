(* Matrix squaring on an 8x8 mesh: verify the result and compare the
   communication behaviour of the three strategies of the paper.

   Run with: dune exec examples/matmul_demo.exe *)

module Network = Diva_simnet.Network
module Dsm = Diva_core.Dsm
module Matmul = Diva_apps.Matmul
module Runner = Diva_harness.Runner

let () =
  (* First: a verified run. Every processor owns one 8x8 block of a 64x64
     matrix and computes its block of A*A through global variables. *)
  let net = Network.create ~rows:8 ~cols:8 () in
  let dsm = Dsm.create net ~strategy:(Dsm.access_tree ~arity:4 ()) () in
  let app = Matmul.setup dsm { Matmul.block = 64; compute = true } in
  for p = 0 to Network.num_nodes net - 1 do
    Network.spawn net p (fun () -> Matmul.fiber app p)
  done;
  Network.run net;
  Printf.printf "matrix square verified: %b\n\n" (Matmul.verify app);

  (* Second: the paper's comparison. Communication time only (no local
     computation), block size 1024 integers. *)
  Printf.printf "%-16s %14s %14s %10s\n" "strategy" "congestion (B)" "time (ms)"
    "startups";
  List.iter
    (fun choice ->
      let m = Runner.run_matmul ~dims:[| 8; 8 |] ~block:1024 choice in
      Printf.printf "%-16s %14d %14.1f %10d\n" (Runner.name choice)
        m.Runner.congestion_bytes (m.Runner.time /. 1e3) m.Runner.startups)
    [
      Runner.Hand_optimized;
      Runner.Strategy (Dsm.access_tree ~arity:4 ());
      Runner.Strategy (Dsm.access_tree ~arity:2 ());
      Runner.Strategy Dsm.Fixed_home;
    ]
