(* Benchmark harness: regenerates every figure of the paper's evaluation
   section (plus the in-text ablations). Default scale finishes in minutes;
   pass --paper for the paper's full problem sizes.

   Figures (SPAA'99, Krick et al.):
     fig3  matmul ratios vs block size            (16x16 mesh)
     fig4  matmul ratios vs network size          (block 4096)
     fig6  bitonic ratios vs keys per processor   (16x16 mesh)
     fig7  bitonic ratios vs network size         (4096 keys)
     fig8  Barnes-Hut congestion/time vs N        (16x16 mesh, 5 strategies)
     fig9  ... tree-building phase only
     fig10 ... force-computation phase only
     fig11 Barnes-Hut scaling, N = c * P
   Ablations: matmul_arity, bitonic_arity, embedding, combining, replacement. *)

module Dsm = Diva_core.Dsm
module Registry = Diva_core.Registry
module Runner = Diva_harness.Runner
module Report = Diva_harness.Report
module Barnes_hut = Diva_apps.Barnes_hut
module Embedding = Diva_mesh.Embedding
module Table = Diva_util.Table

let paper_scale = ref false
let only : string list ref = ref []

let selected name = !only = [] || List.mem name !only

let banner name = Printf.printf "\n==== %s ====\n%!" name

(* ------------------------------------------------------------------ *)
(* Matrix multiplication (Figures 3 and 4)                              *)
(* ------------------------------------------------------------------ *)

let matmul_row ~q ~block strategies =
  let hand = Runner.run_matmul ~rows:q ~cols:q ~block Runner.Hand_optimized in
  let strats =
    List.map
      (fun (n, s) -> (n, Runner.run_matmul ~rows:q ~cols:q ~block (Runner.Strategy s)))
      strategies
  in
  (hand, strats)

let fig3 () =
  banner "Figure 3: matmul, 16x16 mesh, ratios vs hand-optimized";
  let strategies =
    [ ("fixed-home", Dsm.Fixed_home); ("4-ary", Dsm.access_tree ~arity:4 ()) ]
  in
  let rows =
    List.map
      (fun block ->
        let hand, strats = matmul_row ~q:16 ~block strategies in
        (string_of_int block, hand, strats))
      [ 64; 256; 1024; 4096 ]
  in
  print_string
    (Report.ratio_table
       ~title:
         "congestion ratio and communication time ratio vs block size\n\
          (paper: FH cong 33.3->24.5, 4-ary cong 9.3->6.1; FH time 13.8->10.3,\n\
          \ 4-ary time 7.5->4.5; AT/FH time 55%->44%)"
       ~param:"block" ~congestion:`Bytes ~rows)

let fig4 () =
  banner "Figure 4: matmul, block 4096, ratios vs network size";
  let strategies =
    [ ("fixed-home", Dsm.Fixed_home); ("4-ary", Dsm.access_tree ~arity:4 ()) ]
  in
  let rows =
    List.map
      (fun q ->
        let hand, strats = matmul_row ~q ~block:4096 strategies in
        (Printf.sprintf "%dx%d" q q, hand, strats))
      [ 4; 8; 16; 32 ]
  in
  print_string
    (Report.ratio_table
       ~title:
         "congestion ratio and communication time ratio vs network size\n\
          (paper: FH cong 3.9->48.0, 4-ary cong 2.8->8.1; AT/FH time 99%->28%)"
       ~param:"mesh" ~congestion:`Bytes ~rows)

(* ------------------------------------------------------------------ *)
(* Bitonic sorting (Figures 6 and 7)                                   *)
(* ------------------------------------------------------------------ *)

let bitonic_row ~rows:r ~cols:c ~keys strategies =
  let hand = Runner.run_bitonic ~rows:r ~cols:c ~keys Runner.Hand_optimized in
  let strats =
    List.map
      (fun (n, s) -> (n, Runner.run_bitonic ~rows:r ~cols:c ~keys (Runner.Strategy s)))
      strategies
  in
  (hand, strats)

let fig6 () =
  banner "Figure 6: bitonic sorting, 16x16 mesh, ratios vs hand-optimized";
  let strategies =
    [ ("fixed-home", Dsm.Fixed_home);
      ("2-4-ary", Dsm.access_tree ~arity:2 ~leaf_size:4 ()) ]
  in
  let rows =
    List.map
      (fun keys ->
        let hand, strats = bitonic_row ~rows:16 ~cols:16 ~keys strategies in
        (string_of_int keys, hand, strats))
      [ 256; 1024; 4096; 16384 ]
  in
  print_string
    (Report.ratio_table
       ~title:
         "congestion ratio and execution time ratio vs keys per processor\n\
          (paper: FH cong 8.1->7.1, 2-4-ary cong 3.0->2.8; AT/FH time 60%->48%)"
       ~param:"keys" ~congestion:`Bytes ~rows)

let fig7 () =
  banner "Figure 7: bitonic sorting, 4096 keys/proc, ratios vs network size";
  let strategies =
    [ ("fixed-home", Dsm.Fixed_home);
      ("2-4-ary", Dsm.access_tree ~arity:2 ~leaf_size:4 ()) ]
  in
  let rows =
    List.map
      (fun q ->
        let hand, strats = bitonic_row ~rows:q ~cols:q ~keys:4096 strategies in
        (Printf.sprintf "%dx%d" q q, hand, strats))
      [ 4; 8; 16; 32 ]
  in
  print_string
    (Report.ratio_table
       ~title:
         "congestion ratio and execution time ratio vs network size\n\
          (paper: FH cong 2.8->10.5, 2-4-ary cong 2.1->2.9; AT/FH time 83%->40%)"
       ~param:"mesh" ~congestion:`Bytes ~rows)

(* ------------------------------------------------------------------ *)
(* Barnes-Hut (Figures 8-11)                                            *)
(* ------------------------------------------------------------------ *)

let bh_strategies =
  [
    ("fixed-home", Dsm.Fixed_home);
    ("16-ary", Dsm.access_tree ~arity:16 ());
    ("4-16-ary", Dsm.access_tree ~arity:4 ~leaf_size:16 ());
    ("4-ary", Dsm.access_tree ~arity:4 ());
    ("2-ary", Dsm.access_tree ~arity:2 ());
  ]

let bh_nsweep () =
  if !paper_scale then [ 10000; 20000; 30000; 40000; 50000; 60000 ]
  else [ 1000; 2000; 4000; 8000 ]

(* Keyed by mesh side, bodies and strategy spec, so the figures, the
   bench_json matrix and the shootout share every run they have in
   common. *)
let bh_cache : (int * int * Dsm.strategy, Runner.bh_result) Hashtbl.t =
  Hashtbl.create 64

let bh_run ~q ~n strategy =
  match Hashtbl.find_opt bh_cache (q, n, strategy) with
  | Some r -> r
  | None ->
      let cfg = Barnes_hut.default_config ~nbodies:n in
      let r = Runner.run_barnes_hut ~rows:q ~cols:q ~cfg strategy in
      Hashtbl.add bh_cache (q, n, strategy) r;
      r

let bh_figure ~title ~get () =
  banner title;
  let rows =
    List.map
      (fun n ->
        ( string_of_int n,
          List.map (fun (sn, s) -> (sn, get (bh_run ~q:16 ~n s))) bh_strategies ))
      (bh_nsweep ())
  in
  print_string (Report.absolute_table ~title:"" ~param:"bodies" ~rows ())

let fig8 () =
  bh_figure
    ~title:
      "Figure 8: Barnes-Hut, 16x16 mesh, congestion and total time vs N\n\
       (paper shape: higher tree degree => higher congestion; 4-ary fastest;\n\
       fixed home worst congestion and time)"
    ~get:(fun r -> r.Runner.bh_total)
    ()

let fig9 () =
  bh_figure
    ~title:
      "Figure 9: Barnes-Hut tree-building phase\n\
       (paper shape: fixed home has a large congestion offset from the\n\
       root-cell bottleneck; access trees multicast the root cheaply)"
    ~get:(fun r -> r.Runner.bh_phase Barnes_hut.Build)
    ()

let fig10 () =
  banner
    "Figure 10: Barnes-Hut force-computation phase (plus local computation)";
  let rows =
    List.map
      (fun n ->
        ( string_of_int n,
          List.map
            (fun (sn, s) -> (sn, (bh_run ~q:16 ~n s).Runner.bh_phase Barnes_hut.Force))
            bh_strategies ))
      (bh_nsweep ())
  in
  print_string
    (Report.absolute_table ~title:"" ~param:"bodies"
       ~extra:[ ("comp(s)", fun m -> Table.fstr (m.Runner.max_compute /. 1e6)) ]
       ~rows ())

let fig11 () =
  banner "Figure 11: Barnes-Hut scaling, N proportional to P";
  let c = if !paper_scale then 200 else 25 in
  let meshes = [ (8, 8); (8, 16); (16, 16); (16, 32) ] in
  let strategies =
    [ ("fixed-home", Dsm.Fixed_home);
      ("4-8-ary", Dsm.access_tree ~arity:4 ~leaf_size:8 ()) ]
  in
  let rows =
    List.map
      (fun (r, cl) ->
        let n = c * r * cl in
        let cfg = Barnes_hut.default_config ~nbodies:n in
        ( Printf.sprintf "%dx%d (N=%d)" r cl n,
          List.map
            (fun (sn, s) ->
              let res = Runner.run_barnes_hut ~rows:r ~cols:cl ~cfg s in
              (sn, res.Runner.bh_total))
            strategies ))
      meshes
  in
  print_string
    (Report.absolute_table
       ~title:"(paper: AT/FH time 97%->49%; congestion grows with the longest side)"
       ~param:"mesh"
       ~extra:[ ("comp(s)", fun m -> Table.fstr (m.Runner.max_compute /. 1e6)) ]
       ~rows ());
  List.iter
    (fun (label, strats) ->
      match strats with
      | [ (_, fh); (_, at) ] ->
          Printf.printf "  %s: AT time / FH time = %.0f%%\n" label
            (Diva_util.Stats.percent at.Runner.time fh.Runner.time)
      | _ -> ())
    rows

(* ------------------------------------------------------------------ *)
(* In-text ablations                                                    *)
(* ------------------------------------------------------------------ *)

let matmul_arity () =
  banner "Ablation (paper 3.1): matmul congestion/time vs access-tree degree";
  let strategies =
    [
      ("2-ary", Dsm.access_tree ~arity:2 ());
      ("2-4-ary", Dsm.access_tree ~arity:2 ~leaf_size:4 ());
      ("4-ary", Dsm.access_tree ~arity:4 ());
      ("4-16-ary", Dsm.access_tree ~arity:4 ~leaf_size:16 ());
      ("16-ary", Dsm.access_tree ~arity:16 ());
    ]
  in
  let hand, strats = matmul_row ~q:16 ~block:1024 strategies in
  print_string
    (Report.ratio_table
       ~title:
         "(paper: the smaller the degree the smaller the congestion, but the\n\
          \ 4-ary tree achieves the best times: startups vs congestion)"
       ~param:"block" ~congestion:`Bytes
       ~rows:[ ("1024", hand, strats) ])

let bitonic_arity () =
  banner "Ablation (paper 3.2): bitonic time vs access-tree degree";
  let strategies =
    [
      ("4-ary", Dsm.access_tree ~arity:4 ());
      ("2-ary", Dsm.access_tree ~arity:2 ());
      ("2-4-ary", Dsm.access_tree ~arity:2 ~leaf_size:4 ());
    ]
  in
  let hand, strats = bitonic_row ~rows:16 ~cols:16 ~keys:4096 strategies in
  print_string
    (Report.ratio_table
       ~title:
         "(paper: 2-ary and 2-4-ary beat 4-ary by ~5% and ~8% here, because\n\
          \ the 2-ary decomposition matches the circuit's locality)"
       ~param:"keys" ~congestion:`Bytes
       ~rows:[ ("4096", hand, strats) ])

let embedding_ablation () =
  banner "Ablation: regular (paper) vs fully random embedding (theory)";
  let strategies =
    [
      ("4-ary regular", Dsm.access_tree ~arity:4 ~embedding:Embedding.Regular ());
      ("4-ary random", Dsm.access_tree ~arity:4 ~embedding:Embedding.Random ());
    ]
  in
  let hand, strats = matmul_row ~q:16 ~block:1024 strategies in
  print_string
    (Report.ratio_table
       ~title:"matmul 16x16, block 1024 (regular embedding shortens tree edges)"
       ~param:"block" ~congestion:`Bytes
       ~rows:[ ("1024", hand, strats) ])

let combining_ablation () =
  banner "Ablation: read combining on/off (Barnes-Hut tree-building phase)";
  let n = if !paper_scale then 10000 else 2000 in
  let cfg = Barnes_hut.default_config ~nbodies:n in
  let run comb =
    (Runner.run_barnes_hut ~rows:16 ~cols:16 ~cfg
       (Dsm.access_tree ~arity:4 ~combining:comb ()))
      .Runner.bh_phase Barnes_hut.Build
  in
  let on = run true and off = run false in
  let tbl = Table.create ~header:[ "combining"; "cong(msg)"; "time(s)" ] in
  Table.add_row tbl
    [ "on"; string_of_int on.Runner.congestion_msgs;
      Table.fstr (on.Runner.time /. 1e6) ];
  Table.add_row tbl
    [ "off"; string_of_int off.Runner.congestion_msgs;
      Table.fstr (off.Runner.time /. 1e6) ];
  print_string (Table.render tbl)

let remapping_ablation () =
  banner "Ablation: FOCS'97 tree-node remapping (the paper omits it)";
  let n = if !paper_scale then 10000 else 2000 in
  let cfg = Barnes_hut.default_config ~nbodies:n in
  let run threshold =
    let s =
      match threshold with
      | None -> Dsm.access_tree ~arity:4 ()
      | Some th -> Dsm.access_tree ~arity:4 ~remap_threshold:th ()
    in
    (Runner.run_barnes_hut ~rows:16 ~cols:16 ~cfg s).Runner.bh_total
  in
  let tbl =
    Table.create ~header:[ "remapping"; "cong(msg)"; "time(s)" ]
  in
  List.iter
    (fun (label, threshold) ->
      let m = run threshold in
      Table.add_row tbl
        [ label; string_of_int m.Runner.congestion_msgs;
          Table.fstr (m.Runner.time /. 1e6) ])
    [ ("off (paper)", None); ("threshold 64", Some 64);
      ("threshold 16", Some 16) ];
  print_string (Table.render tbl)

let replacement_ablation () =
  banner "Ablation (paper 3.3): bounded memory triggers LRU replacement (2-ary)";
  (* The paper's point is the onset of replacement (the 2-ary curve's bump
     at 60000 bodies): mild pressure, not full thrashing. *)
  let n = if !paper_scale then 20000 else 1500 in
  let cfg = Barnes_hut.default_config ~nbodies:n in
  let run capacity =
    let s =
      match capacity with
      | None -> Dsm.access_tree ~arity:2 ()
      | Some c -> Dsm.access_tree ~arity:2 ~capacity:c ()
    in
    (Runner.run_barnes_hut ~rows:8 ~cols:8 ~cfg s).Runner.bh_total
  in
  let tbl =
    Table.create ~header:[ "memory"; "cong(msg)"; "time(s)"; "evictions" ]
  in
  let row label (m : Runner.measurements) =
    Table.add_row tbl
      [ label; string_of_int m.Runner.congestion_msgs;
        Table.fstr (m.Runner.time /. 1e6); string_of_int m.Runner.evictions ]
  in
  row "unbounded" (run None);
  row "160 KiB/proc" (run (Some (160 * 1024)));
  row "128 KiB/proc" (run (Some (128 * 1024)));
  print_string (Table.render tbl)

let dimensions_ablation () =
  banner "Extension: 2-D vs 3-D mesh (the theory's d-dimensional setting)";
  let n = if !paper_scale then 12800 else 1600 in
  let cfg = Barnes_hut.default_config ~nbodies:n in
  let strategies =
    [ ("fixed-home", Dsm.Fixed_home); ("2-ary", Dsm.access_tree ~arity:2 ()) ]
  in
  let tbl =
    Table.create ~header:[ "mesh (64 procs)"; "strategy"; "cong(msg)"; "time(s)" ]
  in
  List.iter
    (fun (label, dims) ->
      List.iter
        (fun (sn, s) ->
          let r = (Runner.run_barnes_hut_nd ~dims ~cfg s).Runner.bh_total in
          Table.add_row tbl
            [ label; sn; string_of_int r.Runner.congestion_msgs;
              Table.fstr (r.Runner.time /. 1e6) ])
        strategies)
    [ ("8x8 (2-D)", [| 8; 8 |]); ("4x4x4 (3-D)", [| 4; 4; 4 |]) ];
  print_string (Table.render tbl)

(* ------------------------------------------------------------------ *)
(* Synthetic workload (extension: no application structure at all)      *)
(* ------------------------------------------------------------------ *)

module Workload = Diva_workload

let workload_strategies =
  [ ("fixed-home", Dsm.Fixed_home); ("4-ary", Dsm.access_tree ~arity:4 ()) ]

let workload_skews = [ 0.0; 0.6; 0.9; 1.2 ]

let workload_spec ~skew =
  Workload.Spec.make ~num_vars:256 ~var_size:64
    ~popularity:(if skew = 0.0 then Workload.Spec.Uniform else Workload.Spec.Zipf skew)
    ~phases:[ Workload.Spec.phase ~read_ratio:0.9 200 ]
    ~seed:1 ()

let workload_run ~dims ~skew strategy =
  Workload.Generator.run ~dims ~strategy (workload_spec ~skew)

let workload_zipf () =
  banner "Workload: Zipf skew sweep, 8x8 mesh, 200 ops/proc, 90% reads";
  let rows =
    List.map
      (fun skew ->
        ( Printf.sprintf "%.1f" skew,
          List.map
            (fun (sn, s) ->
              let r = workload_run ~dims:[| 8; 8 |] ~skew s in
              ( sn,
                ( r.Workload.Generator.measurements,
                  Workload.Latency.quad r.Workload.Generator.latency ) ))
            workload_strategies ))
      workload_skews
  in
  print_string
    (Report.workload_table
       ~title:
         "(access trees keep congestion flat as skew concentrates load on\n\
          \ few keys; fixed home degrades at the hot keys' home nodes)"
       ~param:"zipf" ~rows)

(* ------------------------------------------------------------------ *)
(* Open-loop service (extension: SLO tails and the saturation knee)     *)
(* ------------------------------------------------------------------ *)

module Service = Diva_service

let service_strategies =
  [ ("fixed-home", Dsm.Fixed_home); ("4-ary", Dsm.access_tree ~arity:4 ()) ]

(* Rates are scaled to the simulator's per-request DSM cost: the moderate
   point loads the mesh to roughly half capacity (and its >= 1000 arrivals
   keep the p999 guard satisfied), the heavy point is past the knee. *)
let service_spec ~procs ~rate =
  Service.Spec.make ~keys:512 ~value_size:64 ~clients:100_000 ~rate
    ~horizon_us:400_000.0
    ~phases:
      (Service.Spec.scenario_phases Service.Spec.Steady ~keys:512 ~procs
         ~zipf:0.9)
    ~seed:1 ()

let service_dims () = if !paper_scale then [| 16; 16 |] else [| 8; 8 |]

let service_knee () =
  banner "Service: open-loop saturation sweep, poisson arrivals, 95% reads";
  let dims = service_dims () in
  let procs = Array.fold_left ( * ) 1 dims in
  let rates =
    if !paper_scale then [ 4_000.0; 8_000.0; 16_000.0; 32_000.0 ]
    else [ 2_000.0; 4_000.0; 8_000.0; 16_000.0 ]
  in
  List.iter
    (fun (_, s) ->
      let sw =
        Service.Sweep.run ~dims ~strategy:s ~rates
          (service_spec ~procs ~rate:(List.hd rates))
      in
      print_string (Service.Sweep.render sw))
    service_strategies

(* ------------------------------------------------------------------ *)
(* Fault injection (extension: degradation under message loss)          *)
(* ------------------------------------------------------------------ *)

module Fault_schedule = Diva_faults.Schedule
module Faults = Diva_faults.Faults
module Network = Diva_simnet.Network

(* How gracefully each strategy degrades as the network loses messages:
   end-to-end time and recovery traffic under increasing drop
   probability. Deterministic (schedule seed is fixed), so the numbers
   are comparable across PRs. *)
let fault_degradation () =
  banner "Fault injection: matmul 8x8 under increasing message loss";
  let tbl =
    Table.create ~header:[ "drop"; "strategy"; "time(s)"; "lost"; "retx" ]
  in
  List.iter
    (fun prob ->
      let sched =
        if prob = 0.0 then Fault_schedule.empty
        else
          Fault_schedule.make ~seed:9
            [ Fault_schedule.Msg_drop { prob; w = { t0 = 0.0; t1 = 1e9 } } ]
      in
      List.iter
        (fun (sn, s) ->
          let captured = ref None in
          let m =
            Runner.run_matmul ~seed:3
              ~obs:{ Runner.null_obs with Runner.obs_faults = sched }
              ~on_net:(fun net -> captured := Network.faults net)
              ~rows:8 ~cols:8 ~block:256 s
          in
          let lost, retx =
            match !captured with
            | Some f -> (Faults.lost_total f, Faults.retransmits f)
            | None -> (0, 0)
          in
          Table.add_row tbl
            [ Printf.sprintf "%.2f" prob; sn;
              Table.fstr (m.Runner.time /. 1e6); string_of_int lost;
              string_of_int retx ])
        [ ("fixed-home", Runner.Strategy Dsm.Fixed_home);
          ("4-ary", Runner.Strategy (Dsm.access_tree ~arity:4 ())) ])
    [ 0.0; 0.01; 0.05 ];
  print_string (Table.render tbl)

(* ------------------------------------------------------------------ *)
(* Profiler overhead                                                    *)
(* ------------------------------------------------------------------ *)

(* The self-profiler's contract is "< 3% wall-time overhead", checked on
   interleaved (bare, profiled) pairs of the standard hot config; the
   experiment exits 1 when the budget is exceeded. *)
let prof_overhead_budget = 0.03

(* (wall seconds, CPU seconds) of one run. The verdict is computed on CPU
   time: the workload is single-threaded and CPU-bound, so its true cost
   IS its CPU time, while wall clock additionally sees descheduling by
   co-tenants — ±3% invocation-to-invocation on a shared runner even
   under min-of-15, which would drown the <3% budget in noise. The wall
   minima are printed alongside for reference. *)
let prof_overhead_measure () =
  let fourary = Runner.Strategy (Dsm.access_tree ~arity:4 ()) in
  let timed f =
    let c0 = Sys.time () in
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0, Sys.time () -. c0)
  in
  let bare () =
    timed (fun () ->
        ignore (Runner.run_matmul ~rows:24 ~cols:24 ~block:256 fourary))
  in
  let profiled () =
    (* Disarm after timing: to_json is never called here, and a profiler
       left armed would keep SIGPROF firing into the next bare run. *)
    let p = Diva_obs.Prof.create () in
    let obs = { Runner.null_obs with Runner.obs_prof = Some p } in
    let r =
      timed (fun () ->
          ignore (Runner.run_matmul ~obs ~rows:24 ~cols:24 ~block:256 fourary))
    in
    Diva_obs.Prof.disarm p;
    r
  in
  ignore (bare ());  (* warm-up: page in code, settle the allocator *)
  (* Paired design: each profiled run is compared only to the bare run
     right next to it in time (same machine state), alternating which
     side goes first so within-pair drift cancels too. Even CPU time
     carries ±3% multiplicative noise on a shared runner (frequency
     scaling), which a median over a handful of pairs cannot push below
     the 3% budget; the 2nd-smallest of 9 paired ratios is the verdict
     instead — one clean pair is enough to clear an innocent change,
     while a real regression inflates every pair and still trips it. *)
  let ratios = ref [] and base = ref (infinity, infinity) in
  let prof = ref (infinity, infinity) in
  let min2 (a, b) (a', b') = (Float.min a a', Float.min b b') in
  for i = 1 to 9 do
    let a, b = if i land 1 = 0 then (bare, profiled) else (profiled, bare) in
    let ra = a () and rb = b () in
    let rbare, rprof = if i land 1 = 0 then (ra, rb) else (rb, ra) in
    base := min2 !base rbare;
    prof := min2 !prof rprof;
    ratios := (snd rprof /. snd rbare) :: !ratios
  done;
  let ratio =
    match List.sort compare !ratios with
    | _ :: second :: _ -> second
    | [ only ] -> only
    | [] -> 1.0
  in
  (fst !base, fst !prof, snd !base, snd !prof, ratio)

let prof_overhead () =
  banner
    "Profiler overhead (matmul 24x24 b256, 2nd-smallest of 9 interleaved pairs)";
  let base_w, prof_w, base_c, prof_c, ratio = prof_overhead_measure () in
  let over = ratio -. 1.0 in
  Printf.printf
    "bare      %8.1f ms cpu  (%8.1f ms wall)\n\
     profiled  %8.1f ms cpu  (%8.1f ms wall)\n\
     overhead  %+7.2f%% cpu (2nd-smallest paired ratio, budget %.0f%%)\n"
    (base_c *. 1e3) (base_w *. 1e3) (prof_c *. 1e3) (prof_w *. 1e3)
    (100.0 *. over)
    (100.0 *. prof_overhead_budget);
  if over >= prof_overhead_budget then begin
    Printf.printf "prof_overhead: FAILED (overhead >= %.0f%%)\n"
      (100.0 *. prof_overhead_budget);
    exit 1
  end
  else Printf.printf "prof_overhead: OK\n"

(* ------------------------------------------------------------------ *)
(* Machine-readable simulated results (BENCH_diva.json)                 *)
(* ------------------------------------------------------------------ *)

(* A fixed matrix of (app x mesh x strategy) runs whose full simulated
   measurement records (event counts included) are dumped as JSON and
   gated against committed baselines; host time is measured by
   benchmark/run.exe, not here. Deliberately modest sizes: the file is
   regenerated by `bench --only bench_json` in seconds. Under --paper the
   matrix switches to paper-sized problems (a separate committed baseline,
   BENCH_paper_baseline.json, gates that variant nightly); the "scale"
   field keeps the two document families from ever gating each other. *)
(* Strategy shootout: every registry contender, keyed by canonical
   registry name, on three cells: the fixed matmul problem, Barnes-Hut as
   in the default-scale bench_json, and a Zipf workload whose working set
   overflows the capacity contenders' memory, so evicted copies are read
   again. Only matmul grows under --paper: a capacity eviction scans every
   copy its processor holds, so Barnes-Hut at 16x16 with 4000 bodies
   runs for over 15 minutes per capacity contender. Gated as the
   "strategies" section of BENCH_diva.json, judged by the keep-or-delete
   rule of docs/STRATEGIES.md, and run once however many experiments read
   it. *)
let shootout =
  lazy
    (let q = if !paper_scale then 16 else 8 in
     let mesh = Printf.sprintf "%dx%d" q q in
     let each run =
       List.map (fun (name, spec) -> (name, run spec)) (Registry.contenders ())
     in
     let zipf_cap =
       Workload.Spec.make ~num_vars:1024 ~var_size:1024
         ~popularity:(Workload.Spec.Zipf 0.9)
         ~phases:[ Workload.Spec.phase ~read_ratio:0.9 200 ]
         ~seed:1 ()
     in
     [
       ( ("matmul", mesh),
         each (fun s ->
             let block = if !paper_scale then 1024 else 256 in
             Runner.run_matmul ~rows:q ~cols:q ~block (Runner.Strategy s)) );
       ( ("barnes-hut", "8x8"),
         each (fun s -> (bh_run ~q:8 ~n:1000 s).Runner.bh_total) );
       ( ("workload", "zipf-cap"),
         each (fun s ->
             (Workload.Generator.run ~dims:[| 8; 8 |] ~strategy:s zipf_cap)
               .Workload.Generator.measurements) );
     ])

let strategies_doc () =
  let open Diva_obs.Json in
  let fields (n, m) = (n, Obj (Runner.measurement_fields m)) in
  Obj
    (List.map
       (fun ((section, cell), runs) ->
         (section, Obj [ (cell, Obj (List.map fields runs)) ]))
       (Lazy.force shootout))

(* The rule: a zoo contender stays if, on some cell, its simulated time
   or its congestion in messages is strictly the lowest within its
   memory-model group (unbounded or capacity-bounded). *)
let bounded name =
  match List.assoc name (Registry.contenders ()) with
  | Dsm.Access_tree { Diva_core.Strategy.capacity = Some _; _ } -> true
  | _ -> false

let wins name =
  List.concat_map
    (fun ((section, _), runs) ->
      let lowest get =
        List.for_all
          (fun (n, m) ->
            n = name || bounded n <> bounded name
            || get (List.assoc name runs) < get m)
          runs
      in
      List.filter_map
        (fun (metric, get) -> if lowest get then Some (section ^ metric) else None)
        [
          (" time", fun m -> m.Runner.time);
          (" congestion", fun m -> float_of_int m.Runner.congestion_msgs);
        ])
    (Lazy.force shootout)

let strategy_shootout () =
  banner "Strategy shootout: simulated s / congestion msgs per cell";
  let cells = Lazy.force shootout in
  let tbl =
    Table.create
      ~header:
        (("contender" :: "memory" :: List.map (fun ((s, c), _) -> s ^ " " ^ c) cells)
        @ [ "verdict" ])
  in
  List.iter
    (fun name ->
      let cell (_, runs) =
        let m = List.assoc name runs in
        Printf.sprintf "%.2f / %d" (m.Runner.time /. 1e6) m.Runner.congestion_msgs
      in
      let verdict =
        if not (List.mem name (Registry.zoo ())) then "paper"
        else match wins name with [] -> "delete" | w -> "stays: " ^ String.concat ", " w
      in
      Table.add_row tbl
        ((name :: (if bounded name then "64 KiB" else "unbounded")
         :: List.map cell cells)
        @ [ verdict ]))
    (Registry.names ());
  print_string (Table.render tbl)

let bench_doc () =
  let open Diva_obs.Json in
  let fields m = Obj (Runner.measurement_fields m) in
  let mesh_label q = Printf.sprintf "%dx%d" q q in
  let block = if !paper_scale then 1024 else 256 in
  let keys = if !paper_scale then 4096 else 1024 in
  let nbodies = if !paper_scale then 4000 else 1000 in
  let nbody_meshes = if !paper_scale then [ 16 ] else [ 8 ] in
  let strategies =
    [
      ("hand-optimized", Runner.Hand_optimized);
      ("fixed-home", Runner.Strategy Dsm.Fixed_home);
      ("4-ary", Runner.Strategy (Dsm.access_tree ~arity:4 ()));
      ("2-4-ary", Runner.Strategy (Dsm.access_tree ~arity:2 ~leaf_size:4 ()));
    ]
  in
  let matmul =
    List.map
      (fun q ->
        ( mesh_label q,
          Obj
            (List.map
               (fun (sn, s) ->
                 (sn, fields (Runner.run_matmul ~rows:q ~cols:q ~block s)))
               strategies) ))
      [ 4; 8; 16 ]
  in
  let bitonic =
    List.map
      (fun q ->
        ( mesh_label q,
          Obj
            (List.map
               (fun (sn, s) ->
                 (sn, fields (Runner.run_bitonic ~rows:q ~cols:q ~keys s)))
               strategies) ))
      [ 4; 8; 16 ]
  in
  let nbody =
    List.map
      (fun q ->
        ( mesh_label q,
          Obj
            (List.filter_map
               (fun (sn, s) ->
                 match s with
                 | Runner.Hand_optimized -> None
                 | Runner.Strategy s ->
                     Some (sn, fields (bh_run ~q ~n:nbodies s).Runner.bh_total))
               strategies) ))
      nbody_meshes
  in
  let workload =
    List.map
      (fun skew ->
        ( Printf.sprintf "zipf-%.1f" skew,
          Obj
            (List.map
               (fun (sn, s) ->
                 let r = workload_run ~dims:[| 8; 8 |] ~skew s in
                 ( sn,
                   Obj
                     (Runner.measurement_fields r.Workload.Generator.measurements
                     @ Workload.Latency.to_fields r.Workload.Generator.latency)
                 ))
               workload_strategies) ))
      workload_skews
  in
  let service =
    let dims = service_dims () in
    let procs = Array.fold_left ( * ) 1 dims in
    let rates =
      if !paper_scale then [ 10_000.0; 40_000.0 ] else [ 3_000.0; 12_000.0 ]
    in
    List.map
      (fun rate ->
        ( Printf.sprintf "rate-%.0f" rate,
          Obj
            (List.map
               (fun (sn, s) ->
                 let r =
                   Service.Engine.run ~dims ~strategy:s
                     (service_spec ~procs ~rate)
                 in
                 ( sn,
                   Obj
                     (Runner.measurement_fields r.Service.Engine.measurements
                     @ Service.Engine.result_fields r) ))
               service_strategies) ))
      rates
  in
  Obj
    [
      ("schema", String "diva-bench/1");
      ("scale", String (if !paper_scale then "paper" else "default"));
      ("units", Obj [ ("time_us", String "simulated microseconds") ]);
      ( "apps",
        Obj
          [
            ("matmul", Obj matmul);
            ("bitonic", Obj bitonic);
            ("barnes-hut", Obj nbody);
            ("workload", Obj workload);
            ("service", Obj service);
          ] );
      ("strategies", strategies_doc ());
    ]

let bench_json () =
  banner "bench_json: writing BENCH_diva.json";
  Diva_obs.Json.to_file "BENCH_diva.json" (bench_doc ());
  Printf.printf "wrote BENCH_diva.json\n"

(* Regression gate: rerun the bench_json matrix in memory and compare it
   against a committed baseline, loaded first so a bad path fails before
   the matrix runs. Exits 2 on an unreadable baseline and 1 on any
   regression, missing/extra metric or shape mismatch (see
   Diva_harness.Bench_gate). *)
let bench_check path =
  let module Gate = Diva_harness.Bench_gate in
  match Gate.load path with
  | Error e ->
      Printf.eprintf "bench --check: %s\n" e;
      exit 2
  | Ok baseline ->
      banner (Printf.sprintf "bench --check: comparing against %s" path);
      let verdicts = Gate.compare_docs ~baseline ~current:(bench_doc ()) () in
      print_string (Gate.render verdicts);
      if Gate.failures verdicts <> [] then begin
        Printf.printf "bench --check: FAILED against %s\n" path;
        exit 1
      end
      else Printf.printf "bench --check: OK against %s\n" path

(* ------------------------------------------------------------------ *)

let check_baseline : string option ref = ref None

let () =
  (* Same event-loop GC tuning as the divasim CLI (see bin/divasim.ml), so
     the profiler-overhead timings measure the configuration users run. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1_048_576 };
  let specs =
    [
      ("--paper", Arg.Set paper_scale, "run at the paper's full problem sizes");
      ( "--only",
        Arg.String (fun s -> only := String.split_on_char ',' s),
        "comma-separated experiment names (fig3..fig11, matmul_arity, ...)" );
      ( "--check",
        Arg.String (fun s -> check_baseline := Some s),
        "FILE  compare the bench_json matrix against a committed baseline \
         and exit non-zero on regression" );
    ]
  in
  Arg.parse specs (fun _ -> ()) "diva benchmark harness";
  match !check_baseline with
  | Some path -> bench_check path
  | None ->
  let experiments =
    [
      ("fig3", fig3); ("fig4", fig4); ("fig6", fig6); ("fig7", fig7);
      ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
      ("matmul_arity", matmul_arity); ("bitonic_arity", bitonic_arity);
      ("embedding", embedding_ablation); ("combining", combining_ablation);
      ("remapping", remapping_ablation);
      ("replacement", replacement_ablation);
      ("dimensions", dimensions_ablation);
      ("workload_zipf", workload_zipf);
      ("strategies", strategy_shootout);
      ("service_knee", service_knee);
      ("faults", fault_degradation);
      ("prof_overhead", prof_overhead);
      ("bench_json", bench_json);
    ]
  in
  List.iter (fun (name, f) -> if selected name then f ()) experiments
