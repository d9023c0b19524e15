(* Run_spec.validate: every run the CLI golden cases make is accepted,
   and each rule rejects what it names. Run_spec.measure: the same
   results through the campaign driver on any number of domains, and the
   same rejections as execute. Run_spec.campaign: one evaluation per
   distinct cell, results in input order. *)

module Run_spec = Diva_run.Run_spec
module Runner = Diva_harness.Runner
module Dsm = Diva_core.Dsm
module Barnes_hut = Diva_apps.Barnes_hut
module Workload = Diva_workload
module Service = Diva_service
module Json = Diva_obs.Json

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

let invalid () =
  let hand = Runner.Hand_optimized in
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

let rejected () =
  List.iter
    (fun (what, s) ->
      match Run_spec.validate s with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" what)
    (invalid ())

(* One small run per app, a hand-optimized one and one under message
   loss. *)
let measured_specs () =
  let drop =
    Diva_faults.Schedule.make ~seed:9
      [ Diva_faults.Schedule.Msg_drop
          { prob = 0.05; w = { t0 = 0.0; t1 = 1e9 } } ]
  in
  [
    ("matmul", spec (matmul ()) [| 4; 4 |]);
    ("hand-optimized matmul",
     spec ~strategy:Runner.Hand_optimized (matmul ()) [| 4; 4 |]);
    ("bitonic", spec ~strategy:fixed_home (Bitonic { keys = 64 }) [| 4; 4 |]);
    ("nbody", spec (bh ~bodies:64 ~steps:3) [| 2; 2 |]);
    ("workload", spec (workload ()) [| 4; 4 |]);
    ("serve", spec (serve [| 4; 4 |]) [| 4; 4 |]);
    ("lossy matmul", spec ~faults:drop (matmul ()) [| 4; 4 |]);
  ]

(* Everything a measured run reports, as one JSON document. *)
let measured_json = function
  | Error e -> Json.String e
  | Ok (r : Run_spec.measured) ->
      let fields m = Json.Obj (Runner.measurement_fields m) in
      Json.Obj
        [ ("measurements", fields r.Run_spec.measurements);
          ("fields", Json.Obj (Run_spec.fields r));
          ("phases",
           Json.Obj
             (List.map
                (fun (ph, m) -> (Barnes_hut.phase_name ph, fields m))
                r.Run_spec.phases));
          ("faults",
           Json.Obj
             (Option.fold ~none:[] ~some:Diva_faults.Faults.report_fields
                r.Run_spec.faults)) ]

let measure_parallel () =
  let named = measured_specs () in
  let specs = List.map snd named in
  let text r = Json.to_string (measured_json r) in
  let serial =
    List.combine (List.map fst named) (List.map Run_spec.measure specs)
  in
  let parallel = Run_spec.campaign ~domains:3 Run_spec.measure specs in
  List.iter2
    (fun (what, s) p -> Alcotest.(check string) what (text s) (text p))
    serial parallel;
  (match List.assoc "lossy matmul" serial with
  | Ok { Run_spec.faults = Some f; _ } ->
      Alcotest.(check bool) "messages were lost" true
        (Diva_faults.Faults.lost_total f > 0)
  | _ -> Alcotest.fail "lossy matmul reported no fault counters");
  (* A duplicated cell is evaluated once, and every copy gets its
     result. *)
  let calls = Atomic.make 0 in
  let counted s =
    Atomic.incr calls;
    Run_spec.measure s
  in
  let cells = [ "matmul"; "serve"; "matmul"; "matmul" ] in
  let results =
    Run_spec.campaign ~domains:2 counted
      (List.map (fun what -> List.assoc what named) cells)
  in
  Alcotest.(check int) "one evaluation per distinct cell" 2 (Atomic.get calls);
  Alcotest.(check (list string)) "each copy gets its cell's result"
    (List.map (fun what -> text (List.assoc what serial)) cells)
    (List.map text results);
  (* Results come back in input order on any number of domains. *)
  let cells =
    List.init 7 (fun i -> spec (Bitonic { keys = 8 lsl i }) [| 2; 2 |])
  in
  let keys s =
    match s.Run_spec.app with Run_spec.Bitonic { keys } -> keys | _ -> -1
  in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "input order on %d domains" domains)
        (List.map keys cells)
        (Run_spec.campaign ~domains keys cells))
    [ 1; 2; 3 ];
  (* An invalid cell comes back as measure's own rejection. *)
  let bad = snd (List.hd (invalid ())) in
  match
    ( Run_spec.campaign ~domains:2 Run_spec.measure
        [ List.assoc "matmul" named; bad ],
      Run_spec.measure bad )
  with
  | [ Ok _; Error e ], Error e' -> Alcotest.(check string) "same rejection" e' e
  | _ -> Alcotest.fail "the invalid cell was not rejected as measure rejects it"

let measure_rejects () =
  List.iter
    (fun (what, s) ->
      match (Run_spec.measure s, Run_spec.execute Run_spec.no_outputs s) with
      | Error e, Error e' -> Alcotest.(check string) what e' e
      | Ok _, _ -> Alcotest.failf "measure accepted %s" what
      | Error _, Ok () -> Alcotest.failf "execute accepted %s" what)
    (invalid ())

(* Every load source feeds the linearizability oracle through the one
   issue path: each served request or replayed data operation is
   recorded, the history checks, and the run is the one measured without
   an oracle. The paper's applications record nothing, so an oracle is
   rejected for them. *)
let oracle_every_source () =
  let module Oracle = Workload.Oracle in
  let checked what s ~expected =
    let oracle = Oracle.create () in
    match (Run_spec.measure ~oracle s, Run_spec.measure s) with
    | Ok r, Ok plain ->
        Alcotest.(check int) (what ^ ": every data op recorded") (expected r)
          (Oracle.ops oracle);
        Alcotest.(check bool) (what ^ ": ops recorded") true
          (Oracle.ops oracle > 0);
        (match Oracle.check oracle with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" what e);
        Alcotest.(check string) (what ^ ": same run as unchecked")
          (Json.to_string (measured_json (Ok plain)))
          (Json.to_string (measured_json (Ok r)))
    | Error e, _ | _, Error e -> Alcotest.failf "%s rejected: %s" what e
  in
  checked "4x4 serve" (spec (serve [| 4; 4 |]) [| 4; 4 |]) ~expected:(fun r ->
      match r.Run_spec.result with
      | Run_spec.Served r -> r.Service.Engine.completions
      | _ -> Alcotest.fail "serve reported no service result");
  let replayed = replay Workload.Replay.Open_loop in
  let data_ops =
    match replayed with
    | Run_spec.Replay { trace; _ } ->
        List.length
          (List.filter
             (function
               | Diva_obs.Trace.Dsm_access
                   { op = Diva_obs.Trace.(Read | Write); _ } -> true
               | _ -> false)
             trace.Workload.Replay.events)
    | _ -> assert false
  in
  checked "open-loop replay" (spec replayed [| 2; 2 |]) ~expected:(fun _ ->
      data_ops);
  match
    Run_spec.measure ~oracle:(Oracle.create ()) (spec (matmul ()) [| 2; 2 |])
  with
  | Ok _ -> Alcotest.fail "matmul recorded into an oracle"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "the oracle checks every load source" `Quick
      oracle_every_source;
    Alcotest.test_case "validate accepts every golden CLI run" `Quick accepted;
    Alcotest.test_case "validate rejects each rule's violation" `Quick rejected;
    Alcotest.test_case "measure gives the same results on 3 domains" `Quick
      measure_parallel;
    Alcotest.test_case "measure rejects what execute rejects" `Quick
      measure_rejects;
  ]
