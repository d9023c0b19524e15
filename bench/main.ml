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
   Ablations: matmul_arity, bitonic_arity, embedding, combining, replacement.

   Every experiment is a banner, a table of cells (row label, column
   label, Run_spec.t) and a renderer over what those cells measured. The
   driver collects the cells of the selected experiments, simulates each
   distinct one once with Run_spec.measure on every core, then renders
   the experiments in order. *)

module Dsm = Diva_core.Dsm
module Registry = Diva_core.Registry
module Runner = Diva_harness.Runner
module Report = Diva_harness.Report
module Run_spec = Diva_run.Run_spec
module Sweep = Diva_run.Sweep
module Barnes_hut = Diva_apps.Barnes_hut
module Embedding = Diva_mesh.Embedding
module Table = Diva_util.Table
module Json = Diva_obs.Json
module Workload = Diva_workload
module Service = Diva_service
module Fault_schedule = Diva_faults.Schedule

let paper_scale = ref false
let only : string list ref = ref []

let selected name = !only = [] || List.mem name !only

let banner name = Printf.printf "\n==== %s ====\n%!" name

(* ------------------------------------------------------------------ *)
(* Cells and experiments                                                *)
(* ------------------------------------------------------------------ *)

(* Rows of (column label, cell), in print order. *)
type 'a table = (string * (string * 'a) list) list

type experiment = {
  title : string;  (* the banner *)
  cells : Run_spec.t list;
  render : (Run_spec.t -> Run_spec.measured) -> unit;
}

let map_table f (t : 'a table) : 'b table =
  List.map (fun (row, cols) -> (row, List.map (fun (c, x) -> (c, f x)) cols)) t

let table_cells (t : 'a table) =
  List.concat_map (fun (_, cols) -> List.map snd cols) t

(* The common experiment: one table, rendered from its results. *)
let tabulate title cells render =
  { title; cells = table_cells cells;
    render = (fun get -> render (map_table get cells)) }

let row label make strategies =
  (label, List.map (fun (name, s) -> (name, make s)) strategies)

let spec ?(seed = 17) ?(faults = Fault_schedule.empty) dims strategy app =
  { Run_spec.app; dims; strategy; seed; faults }

let matmul_app block = Run_spec.Matmul { block; compute = false }
let matmul ~q ~block s = spec [| q; q |] s (matmul_app block)
let bitonic ~q ~keys s = spec [| q; q |] s (Run_spec.Bitonic { keys })

let barnes_hut ~dims ~n s =
  spec dims (Runner.Strategy s)
    (Run_spec.Barnes_hut (Barnes_hut.default_config ~nbodies:n))

let dsm strategies = List.map (fun (n, s) -> (n, Runner.Strategy s)) strategies
let hand = ("hand-optimized", Runner.Hand_optimized)

let fh_4ary =
  [ ("fixed-home", Dsm.Fixed_home); ("4-ary", Dsm.access_tree ~arity:4 ()) ]

let total (r : Run_spec.measured) = r.Run_spec.measurements
let phase ph (r : Run_spec.measured) = List.assoc ph r.Run_spec.phases
let cong m = string_of_int m.Runner.congestion_msgs
let secs m = Table.fstr (m.Runner.time /. 1e6)

(* One table line per cell, from its row label, column label and result. *)
let lines ~header line results =
  let tbl = Table.create ~header in
  List.iter
    (fun (r, cols) ->
      List.iter (fun (c, x) -> Table.add_row tbl (line r c x)) cols)
    results;
  print_string (Table.render tbl)

(* Figure-style ratios: each row's first column is the hand-optimized
   baseline. *)
let ratios ~title ~param banner_title cells =
  tabulate banner_title cells (fun results ->
      let rows =
        List.map
          (function
            | label, (_, base) :: strats -> (label, base, strats)
            | _, [] -> invalid_arg "ratios: a row without its baseline")
          (map_table total results)
      in
      print_string (Report.ratio_table ~title ~param ~congestion:`Bytes ~rows))

(* ------------------------------------------------------------------ *)
(* Matrix multiplication (Figures 3 and 4)                              *)
(* ------------------------------------------------------------------ *)

let matmul_strategies = hand :: dsm fh_4ary

let fig3 () =
  ratios "Figure 3: matmul, 16x16 mesh, ratios vs hand-optimized"
    ~title:
      "congestion ratio and communication time ratio vs block size\n\
       (paper: FH cong 33.3->24.5, 4-ary cong 9.3->6.1; FH time 13.8->10.3,\n\
       \ 4-ary time 7.5->4.5; AT/FH time 55%->44%)"
    ~param:"block"
    (List.map
       (fun block ->
         row (string_of_int block) (matmul ~q:16 ~block) matmul_strategies)
       [ 64; 256; 1024; 4096 ])

let fig4 () =
  ratios "Figure 4: matmul, block 4096, ratios vs network size"
    ~title:
      "congestion ratio and communication time ratio vs network size\n\
       (paper: FH cong 3.9->48.0, 4-ary cong 2.8->8.1; AT/FH time 99%->28%)"
    ~param:"mesh"
    (List.map
       (fun q ->
         row (Printf.sprintf "%dx%d" q q) (matmul ~q ~block:4096)
           matmul_strategies)
       [ 4; 8; 16; 32 ])

(* ------------------------------------------------------------------ *)
(* Bitonic sorting (Figures 6 and 7)                                   *)
(* ------------------------------------------------------------------ *)

let bitonic_strategies =
  hand
  :: dsm
       [ ("fixed-home", Dsm.Fixed_home);
         ("2-4-ary", Dsm.access_tree ~arity:2 ~leaf_size:4 ()) ]

let fig6 () =
  ratios "Figure 6: bitonic sorting, 16x16 mesh, ratios vs hand-optimized"
    ~title:
      "congestion ratio and execution time ratio vs keys per processor\n\
       (paper: FH cong 8.1->7.1, 2-4-ary cong 3.0->2.8; AT/FH time 60%->48%)"
    ~param:"keys"
    (List.map
       (fun keys ->
         row (string_of_int keys) (bitonic ~q:16 ~keys) bitonic_strategies)
       [ 256; 1024; 4096; 16384 ])

let fig7 () =
  ratios "Figure 7: bitonic sorting, 4096 keys/proc, ratios vs network size"
    ~title:
      "congestion ratio and execution time ratio vs network size\n\
       (paper: FH cong 2.8->10.5, 2-4-ary cong 2.1->2.9; AT/FH time 83%->40%)"
    ~param:"mesh"
    (List.map
       (fun q ->
         row (Printf.sprintf "%dx%d" q q) (bitonic ~q ~keys:4096)
           bitonic_strategies)
       [ 4; 8; 16; 32 ])

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

let comp = [ ("comp(s)", fun m -> Table.fstr (m.Runner.max_compute /. 1e6)) ]

let bh_figure ?extra ~title ~get () =
  tabulate title
    (List.map
       (fun n ->
         row (string_of_int n) (barnes_hut ~dims:[| 16; 16 |] ~n) bh_strategies)
       (bh_nsweep ()))
    (fun results ->
      print_string
        (Report.absolute_table ~title:"" ~param:"bodies" ?extra
           ~rows:(map_table get results) ()))

let fig8 () =
  bh_figure
    ~title:
      "Figure 8: Barnes-Hut, 16x16 mesh, congestion and total time vs N\n\
       (paper shape: higher tree degree => higher congestion; 4-ary fastest;\n\
       fixed home worst congestion and time)"
    ~get:total ()

let fig9 () =
  bh_figure
    ~title:
      "Figure 9: Barnes-Hut tree-building phase\n\
       (paper shape: fixed home has a large congestion offset from the\n\
       root-cell bottleneck; access trees multicast the root cheaply)"
    ~get:(phase Barnes_hut.Build) ()

let fig10 () =
  bh_figure
    ~title:
      "Figure 10: Barnes-Hut force-computation phase (plus local computation)"
    ~extra:comp ~get:(phase Barnes_hut.Force) ()

let fig11 () =
  let c = if !paper_scale then 200 else 25 in
  let strategies =
    [ ("fixed-home", Dsm.Fixed_home);
      ("4-8-ary", Dsm.access_tree ~arity:4 ~leaf_size:8 ()) ]
  in
  tabulate "Figure 11: Barnes-Hut scaling, N proportional to P"
    (List.map
       (fun (r, cl) ->
         let n = c * r * cl in
         row
           (Printf.sprintf "%dx%d (N=%d)" r cl n)
           (barnes_hut ~dims:[| r; cl |] ~n)
           strategies)
       [ (8, 8); (8, 16); (16, 16); (16, 32) ])
    (fun results ->
      let rows = map_table total results in
      print_string
        (Report.absolute_table
           ~title:
             "(paper: AT/FH time 97%->49%; congestion grows with the longest \
              side)"
           ~param:"mesh" ~extra:comp ~rows ());
      List.iter
        (fun (label, strats) ->
          match strats with
          | [ (_, fh); (_, at) ] ->
              Printf.printf "  %s: AT time / FH time = %.0f%%\n" label
                (Diva_util.Stats.percent at.Runner.time fh.Runner.time)
          | _ -> ())
        rows)

(* ------------------------------------------------------------------ *)
(* In-text ablations                                                    *)
(* ------------------------------------------------------------------ *)

let matmul_arity () =
  ratios "Ablation (paper 3.1): matmul congestion/time vs access-tree degree"
    ~title:
      "(paper: the smaller the degree the smaller the congestion, but the\n\
       \ 4-ary tree achieves the best times: startups vs congestion)"
    ~param:"block"
    [
      row "1024" (matmul ~q:16 ~block:1024)
        (hand
        :: dsm
             [
               ("2-ary", Dsm.access_tree ~arity:2 ());
               ("2-4-ary", Dsm.access_tree ~arity:2 ~leaf_size:4 ());
               ("4-ary", Dsm.access_tree ~arity:4 ());
               ("4-16-ary", Dsm.access_tree ~arity:4 ~leaf_size:16 ());
               ("16-ary", Dsm.access_tree ~arity:16 ());
             ]);
    ]

let bitonic_arity () =
  ratios "Ablation (paper 3.2): bitonic time vs access-tree degree"
    ~title:
      "(paper: 2-ary and 2-4-ary beat 4-ary by ~5% and ~8% here, because\n\
       \ the 2-ary decomposition matches the circuit's locality)"
    ~param:"keys"
    [
      row "4096" (bitonic ~q:16 ~keys:4096)
        (hand
        :: dsm
             [
               ("4-ary", Dsm.access_tree ~arity:4 ());
               ("2-ary", Dsm.access_tree ~arity:2 ());
               ("2-4-ary", Dsm.access_tree ~arity:2 ~leaf_size:4 ());
             ]);
    ]

let embedding_ablation () =
  let tree embedding = Dsm.access_tree ~arity:4 ~embedding () in
  ratios "Ablation: regular (paper) vs fully random embedding (theory)"
    ~title:"matmul 16x16, block 1024 (regular embedding shortens tree edges)"
    ~param:"block"
    [
      row "1024" (matmul ~q:16 ~block:1024)
        (hand
        :: dsm
             [ ("4-ary regular", tree Embedding.Regular);
               ("4-ary random", tree Embedding.Random) ]);
    ]

(* One Barnes-Hut cell per row: a strategy variant on [dims]. *)
let variants ~dims ~n variants =
  List.map (fun (label, s) -> row label (barnes_hut ~dims ~n) [ ("", s) ])
    variants

let combining_ablation () =
  let n = if !paper_scale then 10000 else 2000 in
  tabulate "Ablation: read combining on/off (Barnes-Hut tree-building phase)"
    (variants ~dims:[| 16; 16 |] ~n
       [ ("on", Dsm.access_tree ~arity:4 ~combining:true ());
         ("off", Dsm.access_tree ~arity:4 ~combining:false ()) ])
    (lines ~header:[ "combining"; "cong(msg)"; "time(s)" ] (fun label _ r ->
         let m = phase Barnes_hut.Build r in
         [ label; cong m; secs m ]))

let remapping_ablation () =
  let n = if !paper_scale then 10000 else 2000 in
  let tree remap_threshold = Dsm.access_tree ~arity:4 ?remap_threshold () in
  tabulate "Ablation: FOCS'97 tree-node remapping (the paper omits it)"
    (variants ~dims:[| 16; 16 |] ~n
       [ ("off (paper)", tree None); ("threshold 64", tree (Some 64));
         ("threshold 16", tree (Some 16)) ])
    (lines ~header:[ "remapping"; "cong(msg)"; "time(s)" ] (fun label _ r ->
         [ label; cong (total r); secs (total r) ]))

let replacement_ablation () =
  (* The paper's point is the onset of replacement (the 2-ary curve's bump
     at 60000 bodies): mild pressure, not full thrashing. *)
  let n = if !paper_scale then 20000 else 1500 in
  let tree capacity = Dsm.access_tree ~arity:2 ?capacity () in
  tabulate
    "Ablation (paper 3.3): bounded memory triggers LRU replacement (2-ary)"
    (variants ~dims:[| 8; 8 |] ~n
       [ ("unbounded", tree None);
         ("160 KiB/proc", tree (Some (160 * 1024)));
         ("128 KiB/proc", tree (Some (128 * 1024))) ])
    (lines ~header:[ "memory"; "cong(msg)"; "time(s)"; "evictions" ]
       (fun label _ r ->
         let m = total r in
         [ label; cong m; secs m; string_of_int m.Runner.evictions ]))

let dimensions_ablation () =
  let n = if !paper_scale then 12800 else 1600 in
  tabulate "Extension: 2-D vs 3-D mesh (the theory's d-dimensional setting)"
    (List.map
       (fun (label, dims) ->
         row label (barnes_hut ~dims ~n)
           [ ("fixed-home", Dsm.Fixed_home);
             ("2-ary", Dsm.access_tree ~arity:2 ()) ])
       [ ("8x8 (2-D)", [| 8; 8 |]); ("4x4x4 (3-D)", [| 4; 4; 4 |]) ])
    (lines
       ~header:[ "mesh (64 procs)"; "strategy"; "cong(msg)"; "time(s)" ]
       (fun label sn r -> [ label; sn; cong (total r); secs (total r) ]))

(* ------------------------------------------------------------------ *)
(* Synthetic workload (extension: no application structure at all)      *)
(* ------------------------------------------------------------------ *)

let workload_skews = [ 0.0; 0.6; 0.9; 1.2 ]

let workload ~num_vars ~var_size ~popularity s =
  spec ~seed:1 [| 8; 8 |] (Runner.Strategy s)
    (Run_spec.Workload
       (Workload.Spec.make ~num_vars ~var_size ~popularity
          ~phases:[ Workload.Spec.phase ~read_ratio:0.9 200 ]
          ~seed:1 ()))

let zipf_workload ~skew =
  workload ~num_vars:256 ~var_size:64
    ~popularity:
      (if skew = 0.0 then Workload.Spec.Uniform else Workload.Spec.Zipf skew)

let workload_zipf () =
  tabulate "Workload: Zipf skew sweep, 8x8 mesh, 200 ops/proc, 90% reads"
    (List.map
       (fun skew ->
         row (Printf.sprintf "%.1f" skew) (zipf_workload ~skew) fh_4ary)
       workload_skews)
    (fun results ->
      let latency (r : Run_spec.measured) =
        match r.Run_spec.result with
        | Run_spec.Latency l ->
            let open Workload.Latency in
            (total r, (l.p50_us, l.p95_us, l.p99_us, l.max_us))
        | _ -> invalid_arg "workload_zipf: a cell without latency"
      in
      print_string
        (Report.workload_table
           ~title:
             "(access trees keep congestion flat as skew concentrates load on\n\
              \ few keys; fixed home degrades at the hot keys' home nodes)"
           ~param:"zipf"
           ~rows:(map_table latency results)))

(* ------------------------------------------------------------------ *)
(* Open-loop service (extension: SLO tails and the saturation knee)     *)
(* ------------------------------------------------------------------ *)

(* Rates are scaled to the simulator's per-request DSM cost: the moderate
   point loads the mesh to roughly half capacity (and its >= 1000 arrivals
   keep the p999 guard satisfied), the heavy point is past the knee. *)
let serve ~rate s =
  let dims = if !paper_scale then [| 16; 16 |] else [| 8; 8 |] in
  let procs = Array.fold_left ( * ) 1 dims in
  spec ~seed:1 dims (Runner.Strategy s)
    (Run_spec.Serve
       { spec =
           Service.Spec.make ~keys:512 ~value_size:64 ~clients:100_000 ~rate
             ~horizon_us:400_000.0
             ~phases:
               (Service.Spec.scenario_phases Service.Spec.Steady ~keys:512
                  ~procs ~zipf:0.9)
             ~seed:1 ();
         scenario = Service.Spec.Steady })

(* One sweep per strategy: a cell per stepped rate. *)
let service_knee () =
  let rates =
    if !paper_scale then [ 4_000.0; 8_000.0; 16_000.0; 32_000.0 ]
    else [ 2_000.0; 4_000.0; 8_000.0; 16_000.0 ]
  in
  let sweeps =
    List.map
      (fun (_, s) ->
        Sweep.cells ~rates (serve ~rate:(List.hd rates) s))
      fh_4ary
  in
  { title = "Service: open-loop saturation sweep, poisson arrivals, 95% reads";
    cells = List.concat sweeps;
    render =
      (fun get ->
        List.iter
          (fun cells -> print_string (Sweep.render (Sweep.of_runs get cells)))
          sweeps) }

(* ------------------------------------------------------------------ *)
(* Fault injection (extension: degradation under message loss)          *)
(* ------------------------------------------------------------------ *)

(* How gracefully each strategy degrades as the network loses messages:
   end-to-end time and recovery traffic under increasing drop
   probability. Deterministic (schedule seed is fixed), so the numbers
   are comparable across PRs. *)
let fault_degradation () =
  let drop prob =
    if prob = 0.0 then Fault_schedule.empty
    else
      Fault_schedule.make ~seed:9
        [ Fault_schedule.Msg_drop { prob; w = { t0 = 0.0; t1 = 1e9 } } ]
  in
  tabulate "Fault injection: matmul 8x8 under increasing message loss"
    (List.map
       (fun prob ->
         row (Printf.sprintf "%.2f" prob)
           (fun s ->
             spec ~seed:3 ~faults:(drop prob) [| 8; 8 |] s (matmul_app 256))
           (dsm fh_4ary))
       [ 0.0; 0.01; 0.05 ])
    (lines ~header:[ "drop"; "strategy"; "time(s)"; "lost"; "retx" ]
       (fun prob sn r ->
         let lost, retx =
           match r.Run_spec.faults with
           | Some f -> Diva_faults.Faults.(lost_total f, retransmits f)
           | None -> (0, 0)
         in
         [ prob; sn; secs (total r); string_of_int lost; string_of_int retx ]))

(* ------------------------------------------------------------------ *)
(* Profiler overhead                                                    *)
(* ------------------------------------------------------------------ *)

(* The self-profiler's contract is "< 3% wall-time overhead", checked on
   interleaved (bare, profiled) pairs of the standard hot config; the
   experiment exits 1 when the budget is exceeded. It has no cells: the
   driver renders it after every cell is simulated, so no other domain
   runs beside its timings. *)
let prof_overhead_budget = 0.03

(* (wall seconds, CPU seconds) of one run. The verdict is computed on CPU
   time: the workload is single-threaded and CPU-bound, so its true cost
   IS its CPU time, while wall clock additionally sees descheduling by
   co-tenants — ±3% invocation-to-invocation on a shared runner even
   under min-of-15, which would drown the <3% budget in noise. The wall
   minima are printed alongside for reference. *)
let prof_overhead_measure () =
  let hot =
    matmul ~q:24 ~block:256 (Runner.Strategy (Dsm.access_tree ~arity:4 ()))
  in
  let timed ?prof () =
    let c0 = Sys.time () in
    let t0 = Unix.gettimeofday () in
    ignore (Run_spec.measure ?prof hot);
    (Unix.gettimeofday () -. t0, Sys.time () -. c0)
  in
  let bare () = timed () in
  let profiled () =
    (* Disarm after timing: to_json is never called here, and a profiler
       left armed would keep SIGPROF firing into the next bare run. *)
    let p = Diva_obs.Prof.create () in
    let r = timed ~prof:p () in
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
  let render _ =
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
  in
  { title =
      "Profiler overhead (matmul 24x24 b256, 2nd-smallest of 9 interleaved \
       pairs)";
    cells = []; render }

(* ------------------------------------------------------------------ *)
(* Strategy shootout                                                    *)
(* ------------------------------------------------------------------ *)

(* Every registry contender, keyed by canonical registry name, on three
   cells: the fixed matmul problem, Barnes-Hut as in the default-scale
   bench_json, and a Zipf workload whose working set overflows the
   capacity contenders' memory, so evicted copies are read again. Only
   matmul grows under --paper: a capacity eviction scans every copy its
   processor holds, so Barnes-Hut at 16x16 with 4000 bodies runs for over
   15 minutes per capacity contender. Gated as the "strategies" section of
   BENCH_diva.json and judged by the keep-or-delete rule of
   docs/STRATEGIES.md. Sections of one-row tables. *)
let shootout () =
  let q = if !paper_scale then 16 else 8 in
  let each cell make = [ row cell make (Registry.contenders ()) ] in
  [
    ( "matmul",
      each (Printf.sprintf "%dx%d" q q) (fun s ->
          matmul ~q ~block:(if !paper_scale then 1024 else 256)
            (Runner.Strategy s)) );
    ("barnes-hut", each "8x8" (barnes_hut ~dims:[| 8; 8 |] ~n:1000));
    ( "workload",
      each "zipf-cap"
        (workload ~num_vars:1024 ~var_size:1024
           ~popularity:(Workload.Spec.Zipf 0.9)) );
  ]

let section_cells sections =
  List.concat_map (fun (_, t) -> table_cells t) sections

(* Section -> row -> column -> the cell's fields. *)
let sections_json fields get sections =
  let obj f xs = Json.Obj (List.map f xs) in
  obj
    (fun (section, t) ->
      ( section,
        obj
          (fun (label, cols) ->
            (label, obj (fun (c, r) -> (c, Json.Obj (fields r))) cols))
          (map_table get t) ))
    sections

(* The rule: a zoo contender stays if, on some cell, its simulated time
   or its congestion in messages is strictly the lowest within its
   memory-model group (unbounded or capacity-bounded). *)
let bounded name =
  match List.assoc name (Registry.contenders ()) with
  | Dsm.Access_tree { Diva_core.Strategy.capacity = Some _; _ } -> true
  | _ -> false

let wins cells name =
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
        (fun (metric, get) ->
          if lowest get then Some (section ^ metric) else None)
        [
          (" time", fun m -> m.Runner.time);
          (" congestion", fun m -> float_of_int m.Runner.congestion_msgs);
        ])
    cells

let strategy_shootout () =
  let sections = shootout () in
  let render get =
    (* ((section, cell), contender measurements) *)
    let cells =
      List.concat_map
        (fun (section, t) ->
          List.map
            (fun (cell, runs) -> ((section, cell), runs))
            (map_table (fun s -> total (get s)) t))
        sections
    in
    let tbl =
      Table.create
        ~header:
          (("contender" :: "memory"
           :: List.map (fun ((s, c), _) -> s ^ " " ^ c) cells)
          @ [ "verdict" ])
    in
    List.iter
      (fun name ->
        let cell (_, runs) =
          let m = List.assoc name runs in
          Printf.sprintf "%.2f / %d" (m.Runner.time /. 1e6)
            m.Runner.congestion_msgs
        in
        let verdict =
          if not (List.mem name (Registry.zoo ())) then "paper"
          else
            match wins cells name with
            | [] -> "delete"
            | w -> "stays: " ^ String.concat ", " w
        in
        Table.add_row tbl
          ((name :: (if bounded name then "64 KiB" else "unbounded")
           :: List.map cell cells)
          @ [ verdict ]))
      (Registry.names ());
    print_string (Table.render tbl)
  in
  { title = "Strategy shootout: simulated s / congestion msgs per cell";
    cells = section_cells sections; render }

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
let bench_apps () =
  let mesh q = Printf.sprintf "%dx%d" q q in
  let block = if !paper_scale then 1024 else 256 in
  let keys = if !paper_scale then 4096 else 1024 in
  let nbodies = if !paper_scale then 4000 else 1000 in
  let nbody_meshes = if !paper_scale then [ 16 ] else [ 8 ] in
  let strategies =
    [ ("fixed-home", Dsm.Fixed_home);
      ("4-ary", Dsm.access_tree ~arity:4 ());
      ("2-4-ary", Dsm.access_tree ~arity:2 ~leaf_size:4 ()) ]
  in
  let meshes make =
    List.map (fun q -> row (mesh q) (make q) (hand :: dsm strategies))
      [ 4; 8; 16 ]
  in
  [
    ("matmul", meshes (fun q -> matmul ~q ~block));
    ("bitonic", meshes (fun q -> bitonic ~q ~keys));
    ( "barnes-hut",
      List.map
        (fun q ->
          row (mesh q) (barnes_hut ~dims:[| q; q |] ~n:nbodies) strategies)
        nbody_meshes );
    ( "workload",
      List.map
        (fun skew ->
          row (Printf.sprintf "zipf-%.1f" skew) (zipf_workload ~skew) fh_4ary)
        workload_skews );
    ( "service",
      List.map
        (fun rate ->
          row (Printf.sprintf "rate-%.0f" rate) (serve ~rate) fh_4ary)
        (if !paper_scale then [ 10_000.0; 40_000.0 ] else [ 3_000.0; 12_000.0 ])
    );
  ]

let bench_cells () = section_cells (bench_apps ()) @ section_cells (shootout ())

let bench_doc get =
  let measurements r = Runner.measurement_fields (total r) in
  Json.Obj
    [
      ("schema", Json.String "diva-bench/1");
      ("scale", Json.String (if !paper_scale then "paper" else "default"));
      ("units", Json.Obj [ ("time_us", Json.String "simulated microseconds") ]);
      ( "apps",
        sections_json
          (fun r -> measurements r @ Run_spec.fields r)
          get (bench_apps ()) );
      ("strategies", sections_json measurements get (shootout ()));
    ]

let bench_json () =
  let render get =
    Json.to_file "BENCH_diva.json" (bench_doc get);
    Printf.printf "wrote BENCH_diva.json\n"
  in
  { title = "bench_json: writing BENCH_diva.json"; cells = bench_cells ();
    render }

(* Exact gate: run the bench_json matrix in memory and compare its
   document with a committed baseline, byte for byte. The baseline is
   loaded first so a bad path fails before the matrix runs. Exits 2 on an
   unreadable baseline and 1, after naming every leaf that moved, on any
   difference (see Diva_harness.Bench_gate). *)
let bench_check path =
  let module Gate = Diva_harness.Bench_gate in
  match Gate.load path with
  | Error e ->
      Printf.eprintf "bench --check: %s\n" e;
      exit 2
  | Ok baseline ->
      let render get =
        match Gate.check baseline (bench_doc get) with
        | [] -> Printf.printf "bench --check: OK, byte-identical to %s\n" path
        | moved ->
            List.iter print_endline moved;
            Printf.printf "bench --check: FAILED against %s\n" path;
            exit 1
      in
      { title = Printf.sprintf "bench --check: comparing against %s" path;
        cells = bench_cells (); render }

(* ------------------------------------------------------------------ *)

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

(* Simulate each distinct cell once, on every core, then render in
   order. *)
let run exps =
  let cells = List.concat_map (fun e -> e.cells) exps in
  let measure s = Result.fold ~ok:Fun.id ~error:failwith (Run_spec.measure s) in
  let measured =
    List.combine cells
      (Run_spec.campaign ~domains:(Domain.recommended_domain_count ())
         measure cells)
  in
  List.iter
    (fun e ->
      banner e.title;
      e.render (fun s -> List.assoc s measured))
    exps

let check_baseline : string option ref = ref None

let () =
  (* Same event-loop GC tuning as the divasim CLI (see bin/divasim.ml), so
     the profiler-overhead timings measure the configuration users run. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1_048_576 };
  let bad fmt =
    Printf.ksprintf
      (fun s ->
        raise
          (Arg.Bad
             (s ^ "; experiments: "
             ^ String.concat ", " (List.map fst experiments))))
      fmt
  in
  let specs =
    [
      ("--paper", Arg.Set paper_scale, "run at the paper's full problem sizes");
      ( "--only",
        Arg.String
          (fun s ->
            only := String.split_on_char ',' s;
            List.iter
              (fun n ->
                if not (List.mem_assoc n experiments) then
                  bad "unknown experiment %S" n)
              !only),
        "comma-separated experiment names (fig3..fig11, matmul_arity, ...)" );
      ( "--check",
        Arg.String (fun s -> check_baseline := Some s),
        "FILE  exit 1 unless the bench_json matrix reproduces the committed \
         baseline FILE byte for byte; alone it runs nothing else, with \
         --only it runs after the named experiments" );
    ]
  in
  Arg.parse specs (bad "unexpected argument %S") "diva benchmark harness";
  let check = Option.map bench_check !check_baseline in
  let named =
    match (check, !only) with
    | Some _, [] -> []
    | _ ->
        List.filter_map
          (fun (n, e) -> if selected n then Some (e ()) else None)
          experiments
  in
  run (named @ Option.to_list check)
