(* Open-loop service scenario: arrival processes, SLO order statistics,
   phase schedules, engine determinism and queue growth past saturation,
   saturation sweeps, and composition with faults and event traces. *)

module Service = Diva_service
module Arrival = Service.Arrival
module Slo = Service.Slo
module Spec = Service.Spec
module Engine = Service.Engine
module Sweep = Service.Sweep
module Runner = Diva_harness.Runner
module Trace = Diva_obs.Trace
module Dsm = Diva_core.Dsm

let dims = [| 4; 4 |]
let strategy_4ary = Dsm.access_tree ~arity:4 ()

(* A small spec near (but under) the 4x4 mesh's knee: fast to run, yet
   every queue sees real traffic. *)
let small_spec ?(rate = 1_000.0) ?(phases = [ Spec.phase 1.0 ])
    ?(arrival = Arrival.Poisson) ?(seed = 7) () =
  Spec.make ~keys:128 ~value_size:64 ~clients:5_000 ~rate
    ~horizon_us:200_000.0 ~arrival ~read_ratio:0.9 ~phases ~seed ()

(* ------------------------------------------------------------------ *)
(* Arrival processes                                                    *)
(* ------------------------------------------------------------------ *)

let draw_n g n = Array.init n (fun _ -> Arrival.next g)

let test_arrival_monotone () =
  List.iter
    (fun shape ->
      let g = Arrival.make ~seed:3 ~rate:5_000.0 shape in
      let ts = draw_n g 2_000 in
      Array.iteri
        (fun i t ->
          if i > 0 && t < ts.(i - 1) then
            Alcotest.failf "%s: arrival %d goes backwards (%f < %f)"
              (Arrival.shape_name shape) i t
              ts.(i - 1);
          if not (Float.is_finite t && t > 0.0) then
            Alcotest.failf "%s: arrival %d not positive finite"
              (Arrival.shape_name shape) i)
        ts)
    [ Arrival.Poisson;
      Arrival.Bursty { mult = 8.0; mean_on_us = 500.0; mean_off_us = 2_000.0 };
      Arrival.Diurnal { trough = 0.2; period_us = 10_000.0 } ]

let test_arrival_determinism () =
  List.iter
    (fun shape ->
      let a = draw_n (Arrival.make ~seed:11 ~rate:2_000.0 shape) 500 in
      let b = draw_n (Arrival.make ~seed:11 ~rate:2_000.0 shape) 500 in
      Alcotest.(check bool)
        (Arrival.shape_name shape ^ " deterministic")
        true (a = b);
      let c = draw_n (Arrival.make ~seed:12 ~rate:2_000.0 shape) 500 in
      Alcotest.(check bool)
        (Arrival.shape_name shape ^ " seed-sensitive")
        false (a = c))
    [ Arrival.Poisson;
      Arrival.Bursty { mult = 4.0; mean_on_us = 300.0; mean_off_us = 900.0 };
      Arrival.Diurnal { trough = 0.5; period_us = 5_000.0 } ]

(* Long-run mean rate of each process must track the configured rate:
   exactly for Poisson, and for the modulated shapes the time-averaged
   intensity (computable in closed form) within sampling error. *)
let test_arrival_mean_rate () =
  let rate = 10_000.0 in
  let mean_of shape n =
    let g = Arrival.make ~seed:5 ~rate shape in
    let ts = draw_n g n in
    float_of_int n /. ts.(n - 1) *. 1e6
  in
  let check_close name expected got =
    let rel = Float.abs (got -. expected) /. expected in
    if rel > 0.10 then
      Alcotest.failf "%s: mean rate %.0f/s, expected ~%.0f/s" name got expected
  in
  check_close "poisson" rate (mean_of Arrival.Poisson 20_000);
  (* Two-state modulated: fraction of time in burst = on/(on+off). *)
  let mult = 8.0 and on = 500.0 and off = 1_500.0 in
  let avg = rate *. ((on *. mult) +. off) /. (on +. off) in
  check_close "bursty" avg
    (mean_of (Arrival.Bursty { mult; mean_on_us = on; mean_off_us = off })
       40_000);
  (* Raised cosine between trough and 1 averages (1 + trough) / 2. *)
  let trough = 0.3 in
  check_close "diurnal"
    (rate *. (1.0 +. trough) /. 2.0)
    (mean_of (Arrival.Diurnal { trough; period_us = 4_000.0 }) 40_000)

let test_arrival_validate () =
  let bad rate shape =
    match Arrival.validate ~rate shape with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "expected validation error"
  in
  bad 0.0 Arrival.Poisson;
  bad (-1.0) Arrival.Poisson;
  bad 1_000.0 (Arrival.Bursty { mult = 0.5; mean_on_us = 1.0; mean_off_us = 1.0 });
  bad 1_000.0 (Arrival.Bursty { mult = 2.0; mean_on_us = 0.0; mean_off_us = 1.0 });
  bad 1_000.0 (Arrival.Diurnal { trough = 1.5; period_us = 100.0 });
  bad 1_000.0 (Arrival.Diurnal { trough = 0.5; period_us = 0.0 });
  Alcotest.(check bool)
    "good shapes validate" true
    (Arrival.validate ~rate:1.0 Arrival.Poisson = Ok ())

(* ------------------------------------------------------------------ *)
(* SLO order statistics                                                 *)
(* ------------------------------------------------------------------ *)

let test_slo_exact () =
  (* 1..100 shuffled: nearest-rank percentiles are exactly the ranks. *)
  let a = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  let s = Slo.of_samples a in
  Alcotest.(check int) "n" 100 s.Slo.n;
  Alcotest.(check (float 1e-9)) "p50" 50.0 s.Slo.p50_us;
  Alcotest.(check (float 1e-9)) "p99" 99.0 s.Slo.p99_us;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.Slo.max_us;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.Slo.mean_us;
  Alcotest.(check bool) "input untouched" true (a.(0) = 1.0 && a.(99) = 64.0)

let test_slo_p999_guard () =
  let samples n = Array.init n (fun i -> float_of_int (i + 1)) in
  let under = Slo.of_samples (samples (Slo.min_p999_samples - 1)) in
  Alcotest.(check bool) "999 samples: guarded" true (under.Slo.p999_us = None);
  let at = Slo.of_samples (samples Slo.min_p999_samples) in
  (match at.Slo.p999_us with
  | Some v -> Alcotest.(check (float 1e-9)) "1000 samples: exact rank" 999.0 v
  | None -> Alcotest.fail "1000 samples must report p999");
  (* The omitted field never reaches machine-readable output as null. *)
  Alcotest.(check bool)
    "guarded field omitted" true
    (List.assoc_opt "lat_p999_us" (Slo.to_fields under) = None);
  Alcotest.(check bool)
    "present when unguarded" true
    (List.assoc_opt "lat_p999_us" (Slo.to_fields at) <> None);
  let empty = Slo.of_samples [||] in
  Alcotest.(check int) "empty n" 0 empty.Slo.n;
  Alcotest.(check (float 1e-9)) "empty p50" 0.0 empty.Slo.p50_us

(* ------------------------------------------------------------------ *)
(* Phase schedule                                                       *)
(* ------------------------------------------------------------------ *)

let test_spec_boundaries () =
  let spec =
    small_spec
      ~phases:[ Spec.phase 2.0; Spec.phase 1.0; Spec.phase 1.0 ]
      ()
  in
  let b = Spec.boundaries spec in
  Alcotest.(check int) "one boundary per phase" 3 (Array.length b);
  Alcotest.(check (float 1e-6)) "fracs normalized" 100_000.0 b.(0);
  Alcotest.(check (float 1e-6)) "second" 150_000.0 b.(1);
  Alcotest.(check (float 1e-9)) "last is exactly the horizon" 200_000.0 b.(2);
  Alcotest.(check int) "t=0 in phase 0" 0 (Spec.index_at b 0.0);
  Alcotest.(check int) "mid in phase 1" 1 (Spec.index_at b 120_000.0);
  Alcotest.(check int) "boundary starts next phase" 1 (Spec.index_at b 100_000.0);
  Alcotest.(check int) "horizon residue in last phase" 2
    (Spec.index_at b 200_000.0);
  Alcotest.(check int) "past horizon clamps" 2 (Spec.index_at b 1e9)

let test_spec_validate () =
  let bad s =
    match Spec.validate s with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "expected spec validation error"
  in
  bad (small_spec ~phases:[] ());
  bad (small_spec ~phases:[ Spec.phase 0.0 ] ());
  bad (small_spec ~phases:[ Spec.phase ~shift:(-1) 1.0 ] ());
  bad { (small_spec ()) with Spec.read_ratio = 1.5 };
  bad { (small_spec ()) with Spec.keys = 0 };
  bad { (small_spec ()) with Spec.horizon_us = 0.0 };
  bad { (small_spec ()) with Spec.rate = -5.0 };
  bad
    (small_spec
       ~phases:
         [ Spec.phase
             ~popularity:
               (Diva_workload.Spec.Hot_cold
                  { hot_fraction = 2.0; hot_weight = 0.9 })
             1.0 ]
       ());
  Alcotest.(check bool)
    "default spec validates" true
    (Spec.validate (small_spec ()) = Ok ())

let test_scenario_phases () =
  let steady = Spec.scenario_phases Spec.Steady ~keys:128 ~procs:16 ~zipf:0.9 in
  Alcotest.(check int) "steady: one phase" 1 (List.length steady);
  let flash =
    Spec.scenario_phases Spec.Flash_crowd ~keys:128 ~procs:16 ~zipf:0.9
  in
  Alcotest.(check int) "flash crowd: three phases" 3 (List.length flash);
  let migrate =
    Spec.scenario_phases Spec.Hot_migrate ~keys:128 ~procs:16 ~zipf:0.9
  in
  Alcotest.(check int) "migrate: four phases" 4 (List.length migrate);
  Alcotest.(check (list int)) "migrate shifts walk the mesh" [ 0; 4; 8; 12 ]
    (List.map (fun p -> p.Spec.ph_shift) migrate);
  List.iter
    (fun sc ->
      let spec =
        small_spec
          ~phases:(Spec.scenario_phases sc ~keys:128 ~procs:16 ~zipf:0.9)
          ()
      in
      match Spec.validate spec with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "scenario %s invalid: %s" (Spec.scenario_name sc) e)
    [ Spec.Steady; Spec.Flash_crowd; Spec.Hot_migrate ]

(* A flash crowd must be visible in the DSM access stream: during the hot
   phase the top handful of keys take the bulk of the accesses, while the
   steady phase stays spread out. Key identity comes from the traced
   variable names the engine assigns ("k<key>"). *)
let test_flash_crowd_concentration () =
  let hot =
    Diva_workload.Spec.Hot_cold { hot_fraction = 0.03; hot_weight = 0.95 }
  in
  let spec =
    small_spec ~rate:800.0
      ~phases:
        [ Spec.phase ~popularity:(Diva_workload.Spec.Zipf 0.2) 0.5;
          Spec.phase ~popularity:hot 0.5 ]
      ()
  in
  let tr = Trace.create () in
  let _ =
    Engine.run
      ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
      ~dims ~strategy:strategy_4ary spec
  in
  let bounds = Spec.boundaries spec in
  let tally = [| Hashtbl.create 64; Hashtbl.create 64 |] in
  List.iter
    (fun e ->
      match e with
      | Trace.Dsm_access { ts; var_name; var; _ }
        when var >= 0 && String.length var_name > 1 && var_name.[0] = 'k' ->
          let key = int_of_string (String.sub var_name 1 (String.length var_name - 1)) in
          let tbl = tally.(Spec.index_at bounds ts) in
          Hashtbl.replace tbl key
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      | _ -> ())
    (Trace.events tr);
  let top_share tbl k =
    let counts = Hashtbl.fold (fun _ c acc -> c :: acc) tbl [] in
    let sorted = List.sort (fun a b -> compare b a) counts in
    let total = List.fold_left ( + ) 0 counts in
    let rec take n acc = function
      | c :: rest when n > 0 -> take (n - 1) (acc + c) rest
      | _ -> acc
    in
    float_of_int (take k 0 sorted) /. float_of_int (max 1 total)
  in
  (* 3% of 128 keys = a 4-key hotset carrying 95% of the draws. *)
  let steady_share = top_share tally.(0) 4
  and hot_share = top_share tally.(1) 4 in
  if hot_share < 0.75 then
    Alcotest.failf "hot phase: top-4 keys carry only %.0f%%"
      (100.0 *. hot_share);
  if steady_share > 0.5 then
    Alcotest.failf "steady phase: top-4 keys carry %.0f%% (too concentrated)"
      (100.0 *. steady_share)

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let test_engine_determinism () =
  List.iter
    (fun (name, strategy) ->
      let spec = small_spec ~arrival:(Arrival.Diurnal { trough = 0.3; period_us = 50_000.0 }) () in
      let a = Engine.run ~dims ~strategy spec in
      let b = Engine.run ~dims ~strategy spec in
      Alcotest.(check bool) (name ^ ": bit-identical re-run") true (a = b))
    [ ("fixed-home", Dsm.Fixed_home); ("4-ary", strategy_4ary) ]

let test_engine_accounting () =
  let r = Engine.run ~dims ~strategy:strategy_4ary (small_spec ()) in
  Alcotest.(check bool) "arrivals positive" true (r.Engine.arrivals > 0);
  Alcotest.(check int) "every request eventually served" r.Engine.arrivals
    r.Engine.completions;
  Alcotest.(check int) "one latency sample per request" r.Engine.completions
    r.Engine.slo.Slo.n;
  Alcotest.(check bool) "in-horizon bounded by completions" true
    (r.Engine.in_horizon <= r.Engine.completions);
  Alcotest.(check bool) "makespan reaches past last arrival" true
    (r.Engine.makespan_us > 0.0);
  Alcotest.(check int) "one hwm per node" 16 (Array.length r.Engine.queue_hwm)

(* The open-loop property itself: past the knee the offered load keeps
   arriving on schedule, queues build up and goodput detaches; under light
   load the two agree and queues stay shallow. *)
let test_open_loop_saturation () =
  let light = Engine.run ~dims ~strategy:strategy_4ary (small_spec ~rate:500.0 ()) in
  let heavy = Engine.run ~dims ~strategy:strategy_4ary (small_spec ~rate:8_000.0 ()) in
  let ratio r = r.Engine.goodput_per_s /. r.Engine.offered_per_s in
  Alcotest.(check bool) "light load keeps up" true (ratio light >= 0.95);
  Alcotest.(check bool) "heavy load diverges" true (ratio heavy < 0.7);
  Alcotest.(check bool) "arrivals scale with rate (open loop)" true
    (heavy.Engine.arrivals > 10 * light.Engine.arrivals);
  Alcotest.(check bool) "queues grow past saturation" true
    (Engine.max_queue_hwm heavy > 4 * max 1 (Engine.max_queue_hwm light));
  Alcotest.(check bool) "saturated makespan overshoots the horizon" true
    (heavy.Engine.makespan_us > 1.5 *. Spec.(((small_spec ()).horizon_us)));
  Alcotest.(check bool) "light makespan near the horizon" true
    (light.Engine.makespan_us < 1.2 *. Spec.(((small_spec ()).horizon_us)))

let test_engine_faults_compose () =
  let sched =
    Diva_faults.Schedule.make ~seed:4
      [ Diva_faults.Schedule.Msg_drop
          { prob = 0.02; w = { t0 = 0.0; t1 = 1e9 } } ]
  in
  let obs = { Runner.null_obs with Runner.obs_faults = sched } in
  let spec = small_spec () in
  let a = Engine.run ~obs ~dims ~strategy:strategy_4ary spec in
  let b = Engine.run ~obs ~dims ~strategy:strategy_4ary spec in
  Alcotest.(check bool) "faulted run deterministic" true (a = b);
  let clean = Engine.run ~dims ~strategy:strategy_4ary spec in
  Alcotest.(check int) "same arrivals with or without faults"
    clean.Engine.arrivals a.Engine.arrivals;
  Alcotest.(check bool) "loss leaves a mark" true (a <> clean)

(* Composition with the event-trace pipeline: a traced service run feeds
   the analyzer used by `analyze` live and by `analyze --offline` after
   the fact, and tracing never perturbs the run. *)
let test_engine_event_stream () =
  let spec = small_spec ~rate:600.0 () in
  let gcel = Diva_simnet.Machine.gcel in
  let live =
    Diva_obs.Streaming.create ~num_windows:4
      { Diva_obs.Analysis.send_overhead = gcel.Diva_simnet.Machine.send_overhead;
        recv_overhead = gcel.Diva_simnet.Machine.recv_overhead;
        local_overhead = gcel.Diva_simnet.Machine.local_overhead }
  in
  let tr = Trace.tee (Diva_obs.Streaming.feed live) in
  let captured = ref None in
  let traced =
    Engine.run
      ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
      ~on_net:(fun net ->
        captured := Some (Diva_simnet.Network.machine net))
      ~dims ~strategy:strategy_4ary spec
  in
  let untraced = Engine.run ~dims ~strategy:strategy_4ary spec in
  Alcotest.(check bool) "tracing does not perturb" true (traced = untraced);
  let events = Trace.events tr in
  Alcotest.(check bool) "events emitted" true (events <> []);
  let m =
    match !captured with Some m -> m | None -> Alcotest.fail "no machine"
  in
  let ov =
    { Diva_obs.Analysis.send_overhead = m.Diva_simnet.Machine.send_overhead;
      recv_overhead = m.Diva_simnet.Machine.recv_overhead;
      local_overhead = m.Diva_simnet.Machine.local_overhead }
  in
  let summary, _peak =
    Diva_obs.Streaming.analyze_events ~num_windows:4 ov events
  in
  Alcotest.(check bool) "live analysis matches the recorded stream's" true
    (summary = Diva_obs.Streaming.finalize live)

(* ------------------------------------------------------------------ *)
(* Saturation sweep                                                     *)
(* ------------------------------------------------------------------ *)

let test_sweep_knee () =
  let spec = small_spec () in
  let sw =
    Sweep.run ~dims ~strategy:strategy_4ary
      ~rates:[ 8_000.0; 400.0; 800.0 ] (* unsorted on purpose *)
      spec
  in
  Alcotest.(check int) "three rows" 3 (List.length sw.Sweep.sv_rows);
  Alcotest.(check (list (float 1e-9))) "rows sorted ascending"
    [ 400.0; 800.0; 8_000.0 ]
    (List.map (fun r -> r.Sweep.sw_rate) sw.Sweep.sv_rows);
  let diverged = List.map (fun r -> r.Sweep.sw_diverged) sw.Sweep.sv_rows in
  Alcotest.(check (list bool)) "only the saturated point diverges"
    [ false; false; true ] diverged;
  (match sw.Sweep.sv_knee with
  | Some k -> Alcotest.(check (float 1e-9)) "knee is last sustained rate" 800.0 k
  | None -> Alcotest.fail "expected a knee");
  List.iter
    (fun r ->
      Alcotest.(check bool) "ratio consistent" true
        (Float.abs (r.Sweep.sw_ratio -. (r.Sweep.sw_goodput /. r.Sweep.sw_offered))
        < 1e-9))
    sw.Sweep.sv_rows;
  (* All-diverged sweeps report no knee rather than a misleading rate. *)
  let hopeless =
    Sweep.run ~dims ~strategy:strategy_4ary ~rates:[ 8_000.0; 16_000.0 ] spec
  in
  Alcotest.(check bool) "no knee when everything diverges" true
    (hopeless.Sweep.sv_knee = None);
  match Sweep.run ~dims ~strategy:strategy_4ary ~rates:[] spec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty rate list must be rejected"

let test_sweep_json () =
  let spec = small_spec () in
  let sw = Sweep.run ~dims ~strategy:Dsm.Fixed_home ~rates:[ 500.0; 8_000.0 ] spec in
  let doc = Sweep.to_json ~params:(Spec.to_params spec) [ sw ] in
  let open Diva_obs.Json in
  (match doc with
  | Obj fields ->
      Alcotest.(check bool) "schema tagged" true
        (List.assoc_opt "schema" fields = Some (String "diva-service-sweep/1"));
      (match List.assoc_opt "sweeps" fields with
      | Some (List [ Obj sweep ]) ->
          Alcotest.(check bool) "strategy named" true
            (List.assoc_opt "strategy" sweep = Some (String "fixed home"));
          (match List.assoc_opt "rows" sweep with
          | Some (List rows) ->
              Alcotest.(check int) "row per rate" 2 (List.length rows)
          | _ -> Alcotest.fail "rows missing")
      | _ -> Alcotest.fail "sweeps missing")
  | _ -> Alcotest.fail "sweep doc not an object");
  (* Round-trips through the JSON printer/parser. *)
  match of_string (to_string doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sweep json does not parse: %s" e

let suite =
  [
    Alcotest.test_case "arrivals monotone and finite" `Quick
      test_arrival_monotone;
    Alcotest.test_case "arrival determinism" `Quick test_arrival_determinism;
    Alcotest.test_case "arrival mean rates" `Quick test_arrival_mean_rate;
    Alcotest.test_case "arrival validation" `Quick test_arrival_validate;
    Alcotest.test_case "slo exact order statistics" `Quick test_slo_exact;
    Alcotest.test_case "slo p999 minimum-sample guard" `Quick
      test_slo_p999_guard;
    Alcotest.test_case "phase boundaries" `Quick test_spec_boundaries;
    Alcotest.test_case "spec validation" `Quick test_spec_validate;
    Alcotest.test_case "scenario phase schedules" `Quick test_scenario_phases;
    Alcotest.test_case "flash crowd concentrates accesses" `Quick
      test_flash_crowd_concentration;
    Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
    Alcotest.test_case "engine accounting" `Quick test_engine_accounting;
    Alcotest.test_case "open-loop saturation" `Quick test_open_loop_saturation;
    Alcotest.test_case "faults compose deterministically" `Quick
      test_engine_faults_compose;
    Alcotest.test_case "event stream composes with analysis" `Quick
      test_engine_event_stream;
    Alcotest.test_case "sweep knee detection" `Quick test_sweep_knee;
    Alcotest.test_case "sweep json table" `Quick test_sweep_json;
  ]
