(* Barnes-Hut N-body simulation of a Plummer sphere on an 8x8 mesh, with
   the per-phase breakdown the paper analyses (tree building and force
   computation), comparing the 4-ary access tree against the fixed home
   strategy.

   Run with: dune exec examples/nbody_demo.exe *)

module Dsm = Diva_core.Dsm
module Barnes_hut = Diva_apps.Barnes_hut
module Runner = Diva_harness.Runner
module Vec = Diva_apps.Vec

let () =
  let cfg = Barnes_hut.default_config ~nbodies:1000 in
  Printf.printf
    "Barnes-Hut: %d bodies (Plummer), theta %.1f, %d steps (%d measured), 8x8 mesh\n\n"
    cfg.Barnes_hut.nbodies cfg.Barnes_hut.theta cfg.Barnes_hut.steps
    (cfg.Barnes_hut.steps - cfg.Barnes_hut.warmup);
  List.iter
    (fun (name, strategy) ->
      let r = Runner.run_barnes_hut ~dims:[| 8; 8 |] ~cfg strategy in
      let tot = r.Runner.bh_total in
      Printf.printf "%s:\n" name;
      Printf.printf "  total     : %8.2f s  congestion %6d msgs\n"
        (tot.Runner.time /. 1e6) tot.Runner.congestion_msgs;
      List.iter
        (fun ph ->
          let m = r.Runner.bh_phase ph in
          Printf.printf "  %-10s: %8.2f s  congestion %6d msgs\n"
            (Barnes_hut.phase_name ph)
            (m.Runner.time /. 1e6) m.Runner.congestion_msgs)
        [ Barnes_hut.Build; Barnes_hut.Force ];
      Printf.printf "  cache hits: %.1f%% of %d reads\n\n"
        (100.0 *. float_of_int tot.Runner.dsm_read_hits
        /. float_of_int (max 1 tot.Runner.dsm_reads))
        tot.Runner.dsm_reads)
    [
      ("4-ary access tree", Dsm.access_tree ~arity:4 ());
      ("fixed home", Dsm.Fixed_home);
    ]
