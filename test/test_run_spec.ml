(* Run_spec.validate: every run the CLI golden cases make is accepted,
   and each rule rejects what it names. *)

module Run_spec = Diva_run.Run_spec
module Runner = Diva_harness.Runner
module Dsm = Diva_core.Dsm
module Barnes_hut = Diva_apps.Barnes_hut
module Workload = Diva_workload
module Service = Diva_service

let tree4 = Runner.Strategy (Dsm.access_tree ~arity:4 ())
let fixed_home = Runner.Strategy Dsm.Fixed_home

let spec ?(strategy = tree4) ?(faults = Diva_faults.Schedule.empty) app dims =
  { Run_spec.app; dims; strategy; seed = 17; faults }

let matmul ?(compute = false) () = Run_spec.Matmul { block = 64; compute }

let replay mode =
  match Workload.Replay.read "data/golden_events_2x2.jsonl" with
  | Ok trace -> Run_spec.Replay { path = "in.jsonl"; mode; trace }
  | Error e -> Alcotest.fail e

let bh ~bodies ~steps =
  Run_spec.Barnes_hut
    { (Barnes_hut.default_config ~nbodies:bodies) with Barnes_hut.steps }

let workload ?(num_vars = 32) () =
  Run_spec.Workload
    (Workload.Spec.make ~num_vars ~popularity:(Workload.Spec.Zipf 0.9)
       ~lock_every:5 ~phases:[ Workload.Spec.phase 20 ] ~seed:17 ())

let serve ?(keys = 4096) dims =
  let procs = Array.fold_left ( * ) 1 dims in
  Run_spec.Serve
    {
      spec =
        Service.Spec.make ~keys ~rate:3000.0 ~horizon_us:50_000.0
          ~phases:
            (Service.Spec.scenario_phases Service.Spec.Steady ~keys ~procs
               ~zipf:0.9)
          ~seed:17 ();
      scenario = Service.Spec.Steady;
    }

let accepted () =
  let faults =
    match Diva_faults.Schedule.read "data/cli/faults.json" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (what, s) ->
      match Run_spec.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" what e)
    [
      ("matmul", spec ~faults (matmul ()) [| 4; 4 |]);
      ( "hand-optimized matmul",
        spec ~strategy:Runner.Hand_optimized (matmul ~compute:true ())
          [| 2; 2 |] );
      ("bitonic", spec ~strategy:fixed_home (Bitonic { keys = 64 }) [| 4; 4 |]);
      ( "hand-optimized 3-D bitonic",
        spec ~strategy:Runner.Hand_optimized (Bitonic { keys = 32 })
          [| 2; 2; 2 |] );
      ("nbody", spec (bh ~bodies:64 ~steps:3) [| 2; 2 |]);
      ("analyze nbody", spec (bh ~bodies:48 ~steps:3) [| 2; 2 |]);
      ("workload", spec (workload ()) [| 4; 4 |]);
      ( "closed replay",
        spec ~strategy:(Runner.Strategy (Dsm.access_tree ~arity:2 ()))
          (replay Workload.Replay.Closed_loop) [| 2; 2 |] );
      ( "open replay",
        spec ~strategy:fixed_home (replay Workload.Replay.Open_loop)
          [| 2; 2 |] );
      ("serve", spec (serve [| 4; 4 |]) [| 4; 4 |]);
    ]

let rejected () =
  let hand = Runner.Hand_optimized in
  List.iter
    (fun (what, s) ->
      match Run_spec.validate s with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" what)
    [
      ("non-square matmul", spec (matmul ()) [| 2; 4 |]);
      ("3-D matmul", spec (matmul ()) [| 2; 2; 2 |]);
      ("empty mesh dimension", spec (Bitonic { keys = 8 }) [| 0; 4 |]);
      ("bitonic on 3x3", spec (Bitonic { keys = 8 }) [| 3; 3 |]);
      ("hand-optimized nbody",
       spec ~strategy:hand (bh ~bodies:8 ~steps:3) [| 2; 2 |]);
      ("hand-optimized workload", spec ~strategy:hand (workload ()) [| 2; 2 |]);
      ("empty key space", spec (workload ~num_vars:0 ()) [| 2; 2 |]);
      ( "hand-optimized replay",
        spec ~strategy:hand (replay Workload.Replay.Closed_loop) [| 2; 2 |] );
      ("replay off its mesh",
       spec (replay Workload.Replay.Closed_loop) [| 4; 4 |]);
      ("hand-optimized serve",
       spec ~strategy:hand (serve [| 2; 2 |]) [| 2; 2 |]);
      ("empty service key space", spec (serve ~keys:0 [| 2; 2 |]) [| 2; 2 |]);
    ]

let suite =
  [
    Alcotest.test_case "validate accepts every golden CLI run" `Quick accepted;
    Alcotest.test_case "validate rejects each rule's violation" `Quick rejected;
  ]
