(* divasim: run one application under one data-management strategy on one
   simulated mesh, and print the paper's metrics.

     divasim matmul  --mesh 16x16 --block 1024 --strategy 4-ary
     divasim bitonic --mesh 8x8   --keys 4096  --strategy fixed-home
     divasim nbody   --mesh 16x16 --bodies 4000 --strategy 2-4-ary --phases

   Observability artifacts (see docs/OBSERVABILITY.md):

     divasim matmul --mesh 8x8 --block 256 --strategy 4-ary \
       --trace /tmp/t.json --metrics /tmp/m.csv --sample-interval 500
*)

module Dsm = Diva_core.Dsm
module Strategy = Diva_core.Strategy
module Registry = Diva_core.Registry
module Runner = Diva_harness.Runner
module Barnes_hut = Diva_apps.Barnes_hut
module Embedding = Diva_mesh.Embedding
module Workload = Diva_workload
module Fault_schedule = Diva_faults.Schedule
module Run_spec = Diva_run.Run_spec
open Cmdliner

let parse_mesh s =
  let parts = String.split_on_char 'x' (String.lowercase_ascii s) in
  let dims = List.filter_map int_of_string_opt parts in
  if List.length dims = List.length parts && dims <> []
     && List.for_all (fun d -> d > 0) dims
  then Ok (Array.of_list dims)
  else Error (`Msg "mesh must look like 16x16 (or 4x4x4)")

let mesh_conv =
  Arg.conv
    ( parse_mesh,
      fun fmt dims ->
        Format.fprintf fmt "%s"
          (String.concat "x" (List.map string_of_int (Array.to_list dims))) )

(* Any strategy-registry name ("access_tree", "adaptive_repl",
   "capacity_lru", ...), the classic paper spellings
   ("4-ary", "2-4-ary", "fixed-home"), or "hand-optimized"; a "+random"
   suffix selects the fully random embedding (tree strategies only). *)
let parse_strategy s =
  let s = String.lowercase_ascii (String.trim s) in
  let embedding, random, s =
    match Filename.chop_suffix_opt ~suffix:"+random" s with
    | Some base -> (Embedding.Random, true, base)
    | None -> (Embedding.Regular, false, s)
  in
  match s with
  | "hand" | "handopt" | "hand-optimized" -> Ok Runner.Hand_optimized
  | _ -> (
      match Registry.find s with
      | Some (Dsm.Access_tree c) ->
          Ok (Runner.Strategy (Dsm.Access_tree { c with Strategy.embedding }))
      | Some spec when not random -> Ok (Runner.Strategy spec)
      | Some _ -> Error (`Msg "+random only applies to tree strategies")
      | None -> (
          match String.split_on_char '-' s with
          | [ l; "ary" ] -> (
              match int_of_string_opt l with
              | Some l when l = 2 || l = 4 || l = 16 ->
                  Ok (Runner.Strategy (Dsm.access_tree ~arity:l ~embedding ()))
              | _ -> Error (`Msg "arity must be 2, 4 or 16"))
          | [ l; k; "ary" ] -> (
              match (int_of_string_opt l, int_of_string_opt k) with
              | Some l, Some k when (l = 2 || l = 4 || l = 16) && k >= 1 ->
                  Ok
                    (Runner.Strategy
                       (Dsm.access_tree ~arity:l ~leaf_size:k ~embedding ()))
              | _ -> Error (`Msg "bad l-k-ary strategy"))
          | _ ->
              Error
                (`Msg
                   (Printf.sprintf
                      "strategy is a registry name (%s), a tree spelling \
                       (2-ary, 4-ary, 16-ary, 2-4-ary, 4-16-ary), or \
                       hand-optimized (append +random for the random \
                       embedding)"
                      (String.concat ", " (Registry.names ()))))))

let strategy_conv =
  Arg.conv
    ( parse_strategy,
      fun fmt c -> Format.fprintf fmt "%s" (Runner.name c) )

(* An integer flag whose range is checked while parsing, so a bad value
   is a usage error (exit 124) rather than a library exception. *)
let int_conv ~ok ~expected =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s (got %S)" expected s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_conv ~ok:(fun n -> n >= 1) ~expected:"a positive integer"

let mesh_t =
  Arg.(
    value
    & opt mesh_conv [| 8; 8 |]
    & info [ "mesh" ] ~docv:"RxC" ~doc:"Mesh size (any dimension, e.g. 4x4x4).")

let strategy_t =
  Arg.(
    value
    & opt strategy_conv (Runner.Strategy (Dsm.access_tree ~arity:4 ()))
    & info [ "strategy" ] ~docv:"S" ~doc:"Data management strategy.")

let seed_t =
  Arg.(value & opt int 17 & info [ "seed" ] ~doc:"Random seed of the run.")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "OCaml domains to execute on. Results are identical for every \
           $(docv): the sharded traffic engine and run-level fan-out (chaos \
           campaigns, serve sweeps) are deterministic by construction, and \
           single protocol-coupled runs (matmul, bitonic, nbody, workload, \
           serve without --sweep) are inherently serial — they note and \
           ignore $(docv) > 1 (see docs/PERFORMANCE.md).")

(* The DSM stack's wormhole model reserves a message's whole route at the
   send instant — zero lookahead — so one protocol-coupled run cannot be
   sharded without changing its results. Say so instead of silently
   ignoring the flag. *)
let note_serial ~what domains =
  if domains > 1 then
    Printf.printf
      "note: %s is a single protocol-coupled run (zero lookahead); running \
       serially, --domains %d has no effect here\n"
      what domains

(* ------------------------------------------------------------------ *)
(* Observability artifacts                                             *)
(* ------------------------------------------------------------------ *)

(* The artifact flags every single-run command shares, parsed into the
   executor's outputs plus the run's fault schedule. *)
let obs_opts_t =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the run (open in Perfetto \
             or chrome://tracing). Tracing does not change the simulation.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a time series of link congestion and CPU occupancy \
             sampled on the simulated clock: CSV, or JSON if FILE ends in \
             .json.")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Write the final metrics sample in Prometheus text exposition \
             format (for node_exporter's textfile collector or any \
             scraper-side ingestion).")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Write a standalone JSON run manifest (seed, mesh, strategy, \
             app parameters, all measurements). The manifest is also \
             embedded in the trace file's metadata.")
  in
  let pos_float =
    let parse s =
      match float_of_string_opt s with
      | Some f when Float.is_finite f && f > 0.0 -> Ok f
      | _ -> Error (`Msg "expected a positive number")
    in
    Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g" f)
  in
  let sample =
    Arg.(
      value & opt pos_float 1000.0
      & info [ "sample-interval" ] ~docv:"US"
          ~doc:"Metrics sampling interval in simulated microseconds.")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Record the run's full causal event stream as a versioned JSONL \
             trace (see docs/OBSERVABILITY.md), streamed line by line as the \
             simulation runs. Post-mortem it later with $(b,divasim analyze \
             --offline FILE) — no re-simulation needed — or re-run its DSM \
             access stream under another strategy with $(b,divasim workload \
             --replay FILE).")
  in
  let prof =
    Arg.(
      value
      & opt (some string) None
      & info [ "prof" ] ~docv:"FILE"
          ~doc:
            "Self-profile the simulator process and write the \
             $(b,diva-prof/1) JSON document: per-subsystem CPU sample split, \
             a per-window host series (events/sec, allocation, heap), GC \
             totals and coarse region timers. Render it with $(b,divasim \
             profile FILE). Profiling never changes the simulated execution \
             and costs well under the bench gate's 3% wall-time budget.")
  in
  let flight =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Arm the crash flight recorder: a bounded ring of the most \
             recent trace events plus periodic health snapshots, dumped to \
             $(docv) on an uncaught exception or the first DSM watchdog \
             trip. Nothing is written when the run succeeds. Render a dump \
             with $(b,divasim profile FILE).")
  in
  let ticker =
    Arg.(
      value & flag
      & info [ "ticker" ]
          ~doc:
            "Print a live single-line progress/health ticker (simulated \
             time, events, events/sec, heap) to stderr while the run \
             executes.")
  in
  let faults_conv =
    let parse s =
      match Fault_schedule.read s with
      | Ok sched -> Ok sched
      | Error e ->
          Error (`Msg (Printf.sprintf "cannot load fault schedule %s: %s" s e))
    in
    Arg.conv
      (parse, fun ppf sched ->
        Format.fprintf ppf "%s" (Fault_schedule.describe sched))
  in
  let faults =
    Arg.(
      value
      & opt faults_conv Fault_schedule.empty
      & info [ "faults" ] ~docv:"FILE"
          ~doc:
            "Inject the deterministic fault schedule $(docv) (JSON, see \
             docs/FAULTS.md): link slowdowns and outages, probabilistic \
             message loss, node pause and crash windows. Remote messages \
             travel in a reliable ack/retry envelope while faults are \
             active; the run report gains a $(b,faults) section.")
  in
  let heatmap =
    Arg.(
      value & flag
      & info [ "heatmap" ] ~doc:"Print the per-node traffic distribution.")
  in
  let mk trace_file metrics_file prom_file manifest_file events_file prof_file
      flight_file ticker sample_us faults heatmap =
    ( { Run_spec.trace_file; metrics_file; prom_file; manifest_file;
        events_file; prof_file; flight_file; ticker; sample_us; heatmap;
        phases = false },
      faults )
  in
  Term.(
    const mk $ trace $ metrics $ prom $ manifest $ events $ prof $ flight
    $ ticker $ sample $ faults $ heatmap)

let fail msg =
  Printf.eprintf "divasim: %s\n" msg;
  exit 1

(* Check, run and report one run; a rejected run or an unwritable
   artifact is an error message and exit 1. *)
let execute ?analyze out spec =
  Result.iter_error fail (Run_spec.execute ?analyze out spec)

let spec app dims strategy seed faults =
  { Run_spec.app; dims; strategy; seed; faults }

(* An event-trace argument ([--offline], [--replay]): existence and header
   (format + version) are validated at argument-parse time; the body
   parses after. *)
let trace_file_conv =
  let parse s =
    match Diva_obs.Streaming.probe s with
    | Ok () -> Ok s
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf s -> Format.fprintf ppf "%s" s)

let read_replay path =
  Result.fold ~ok:Fun.id ~error:fail (Workload.Replay.read path)

let matmul_cmd =
  let block =
    Arg.(value & opt int 1024 & info [ "block" ] ~doc:"Integers per block.")
  in
  let compute =
    Arg.(value & flag & info [ "compute" ] ~doc:"Include block arithmetic.")
  in
  let run dims strategy block compute seed (out, faults) domains =
    note_serial ~what:"matmul" domains;
    execute out (spec (Matmul { block; compute }) dims strategy seed faults)
  in
  Cmd.v (Cmd.info "matmul" ~doc:"Matrix squaring (paper 3.1)")
    Term.(
      const run $ mesh_t $ strategy_t $ block $ compute $ seed_t $ obs_opts_t
      $ domains_t)

let bitonic_cmd =
  let keys =
    Arg.(value & opt int 4096 & info [ "keys" ] ~doc:"Keys per processor.")
  in
  let run dims strategy keys seed (out, faults) domains =
    note_serial ~what:"bitonic" domains;
    execute out (spec (Bitonic { keys }) dims strategy seed faults)
  in
  Cmd.v (Cmd.info "bitonic" ~doc:"Bitonic sorting (paper 3.2)")
    Term.(
      const run $ mesh_t $ strategy_t $ keys $ seed_t $ obs_opts_t $ domains_t)

let nbody_cmd =
  let bodies =
    Arg.(value & opt pos_int 2000 & info [ "bodies" ] ~doc:"Number of bodies.")
  in
  let steps = Arg.(value & opt int 7 & info [ "steps" ] ~doc:"Time steps.") in
  let theta =
    Arg.(value & opt float 1.0 & info [ "theta" ] ~doc:"Opening criterion.")
  in
  let phases =
    Arg.(value & flag & info [ "phases" ] ~doc:"Print the per-phase breakdown.")
  in
  let run dims strategy bodies steps theta phases seed (out, faults) domains =
    note_serial ~what:"nbody" domains;
    let cfg =
      { (Barnes_hut.default_config ~nbodies:bodies) with
        Barnes_hut.steps; theta }
    in
    execute { out with phases }
      (spec (Barnes_hut cfg) dims strategy seed faults)
  in
  Cmd.v (Cmd.info "nbody" ~doc:"Barnes-Hut N-body simulation (paper 3.3)")
    Term.(
      const run $ mesh_t $ strategy_t $ bodies $ steps $ theta $ phases
      $ seed_t $ obs_opts_t $ domains_t)

(* ------------------------------------------------------------------ *)
(* analyze: span trees, critical path, congestion profiles             *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let app_t =
    Arg.(
      value
      & opt
          (enum
             [ ("matmul", `Matmul); ("bitonic", `Bitonic); ("nbody", `Nbody) ])
          `Matmul
      & info [ "app" ] ~docv:"APP"
          ~doc:
            "Application to run inline with causal tracing enabled: \
             $(b,matmul), $(b,bitonic) or $(b,nbody). Ignored with \
             $(b,--replay).")
  in
  let block =
    Arg.(value & opt int 256 & info [ "block" ] ~doc:"matmul: integers per block.")
  in
  let keys =
    Arg.(value & opt int 1024 & info [ "keys" ] ~doc:"bitonic: keys per processor.")
  in
  let bodies =
    Arg.(
      value & opt pos_int 500 & info [ "bodies" ] ~doc:"nbody: number of bodies.")
  in
  let steps =
    Arg.(value & opt int 3 & info [ "steps" ] ~doc:"nbody: time steps.")
  in
  let replay =
    Arg.(
      value
      & opt (some trace_file_conv) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Analyze the DSM access stream of a saved event trace (produced \
             by $(b,--events)) replayed against the chosen strategy instead \
             of running an app inline.")
  in
  let offline =
    Arg.(
      value
      & opt (some trace_file_conv) None
      & info [ "offline" ] ~docv:"FILE"
          ~doc:
            "Post-mortem a saved event trace (produced by $(b,--events)) \
             without re-simulating: the report is bit-identical to the one \
             the live run would have produced. $(b,--mesh), $(b,--strategy) \
             and $(b,--seed) are ignored; the trace header has them.")
  in
  (* --replay re-simulates, --offline must not simulate at all: combining
     them is a contradiction, rejected at parse time like any bad flag. *)
  let input_t =
    let combine replay offline =
      match (replay, offline) with
      | Some _, Some _ ->
          Error
            (`Msg
               "--replay and --offline cannot be combined: --replay \
                re-simulates a saved trace's DSM accesses under the chosen \
                strategy, --offline post-processes the saved trace without \
                simulating anything. Pick one.")
      | Some p, None -> Ok (`Replay p)
      | None, Some p -> Ok (`Offline p)
      | None, None -> Ok `Inline
    in
    Term.(term_result ~usage:true (const combine $ replay $ offline))
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Also record the analyzed run's event stream as a JSONL trace \
             for later $(b,--offline) post-mortems.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Congested links to report.")
  in
  let wins =
    let cap = Diva_obs.Streaming.max_windows in
    let range = Printf.sprintf "0..%d" cap in
    Arg.(
      value
      & opt (int_conv ~ok:(fun n -> n >= 0 && n <= cap) ~expected:range) 8
      & info [ "windows" ] ~docv:"N"
          ~doc:("Time windows for the congestion time-lapse, " ^ range ^ "."))
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable analysis document to $(docv).")
  in
  let snapshots =
    Arg.(
      value & flag
      & info [ "snapshots" ]
          ~doc:
            "Print a per-node traffic heatmap for each time window \
             (time-lapse of where the congestion sits).")
  in
  let run dims strategy app block keys bodies steps input events top windows
      json snapshots seed domains =
    note_serial ~what:"analyze (trace re-simulation)" domains;
    let analyze = { Run_spec.top; windows; json; snapshots } in
    let out = { Run_spec.no_outputs with events_file = events } in
    let empty = Fault_schedule.empty in
    match input with
    | `Offline path -> (
        if events <> None then
          fail "--events records a live run; --offline already has one";
        Result.iter_error fail (Run_spec.preflight [ json ]);
        match
          Diva_obs.Streaming.analyze_file ~top_k:top ~num_windows:windows path
        with
        | Error e -> fail e
        | Ok (h, summary, peak) -> (
            try Run_spec.analysis_report ~offline:(path, peak) analyze h summary
            with Sys_error e -> fail e))
    | `Replay path ->
        let trace = read_replay path in
        execute ~analyze out
          (spec
             (Replay { path; mode = Workload.Replay.Closed_loop; trace })
             trace.Workload.Replay.dims strategy seed empty)
    | `Inline ->
        let app =
          match app with
          | `Matmul -> Run_spec.Matmul { block; compute = false }
          | `Bitonic -> Bitonic { keys }
          | `Nbody ->
              Barnes_hut
                { (Barnes_hut.default_config ~nbodies:bodies) with
                  Barnes_hut.steps }
        in
        execute ~analyze out (spec app dims strategy seed empty)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Causal span analysis: critical path, cost decomposition, per-level \
          traffic and congested links"
       ~man:
         [ `S Manpage.s_description;
           `P
             "Runs an application (or replays a saved trace's DSM accesses) \
              with causal tracing enabled, folds the event stream as it is \
              emitted, in memory bounded by the number of concurrent \
              transactions, and reports where the time went: the last-finishing \
              processor's critical path split into startup / transfer / queue \
              / cpu microseconds, traffic grouped by access-tree level, the \
              top-K congested directed links, and a per-operation latency and \
              cost table. $(b,--json) writes the same data machine-readably; \
              $(b,--snapshots) adds a time-lapse of per-node congestion \
              heatmaps. $(b,--events) saves the analyzed event stream; \
              $(b,--offline) re-analyzes such a saved stream later — \
              bit-identically — without re-simulating." ])
    Term.(
      const run $ mesh_t $ strategy_t $ app_t $ block $ keys $ bodies $ steps
      $ input_t $ events $ top $ wins $ json_out $ snapshots $ seed_t
      $ domains_t)

(* ------------------------------------------------------------------ *)
(* Workload engine                                                     *)
(* ------------------------------------------------------------------ *)

(* All workload arguments are validated up front by their converters, so a
   bad invocation fails with a usage error before any simulation runs. *)

let zipf_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f >= 0.0 -> Ok f
    | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "Zipf exponent must be a finite number >= 0 (got %S); 0 is \
                 uniform, 0.9-1.2 models web-like skew" s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let ratio_conv ~what =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f >= 0.0 && f <= 1.0 -> Ok f
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "%s must be a number in [0,1] (got %S)" what s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let hot_cold_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ f; w ] -> (
        match (float_of_string_opt f, float_of_string_opt w) with
        | Some f, Some w when f > 0.0 && f < 1.0 && w > 0.0 && w < 1.0 ->
            Ok (f, w)
        | _ ->
            Error
              (`Msg
                 "hot-cold is FRACTION:WEIGHT, both strictly between 0 and 1 \
                  (e.g. 0.1:0.9 = 10% of keys get 90% of accesses)"))
    | _ -> Error (`Msg "hot-cold is FRACTION:WEIGHT, e.g. 0.1:0.9")
  in
  Arg.conv (parse, fun ppf (f, w) -> Format.fprintf ppf "%g:%g" f w)

let locality_conv =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "global" -> Ok Workload.Spec.Global
    | "local" | "proc-local" -> Ok Workload.Spec.Proc_local
    | s -> (
        match String.split_on_char ':' s with
        | [ "submesh"; r ] -> (
            match int_of_string_opt r with
            | Some r when r >= 1 -> Ok (Workload.Spec.Submesh r)
            | _ -> Error (`Msg "submesh radius must be an integer >= 1"))
        | _ ->
            Error
              (`Msg "locality is one of: global, local, submesh:RADIUS"))
  in
  Arg.conv
    (parse, fun ppf l -> Format.fprintf ppf "%s" (Workload.Spec.locality_name l))

let burst_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ n; gap ] -> (
        match (int_of_string_opt n, float_of_string_opt gap) with
        | Some n, Some gap when n >= 1 && Float.is_finite gap && gap >= 0.0 ->
            Ok (n, gap)
        | _ -> Error (`Msg "burst is OPS:GAP_US with OPS >= 1 and GAP_US >= 0"))
    | _ -> Error (`Msg "burst is OPS:GAP_US, e.g. 20:500")
  in
  Arg.conv (parse, fun ppf (n, g) -> Format.fprintf ppf "%d:%g" n g)

let print_workload_result name (r : Workload.Generator.result) =
  Printf.printf "-- %s --\n" name;
  Run_spec.print_measurements r.Workload.Generator.measurements;
  print_string (Workload.Latency.render r.Workload.Generator.latency)

let workload_cmd =
  let vars =
    Arg.(
      value & opt int 256
      & info [ "vars" ] ~docv:"N" ~doc:"Shared-variable key space size.")
  in
  let var_size =
    Arg.(
      value & opt int 64
      & info [ "var-size" ] ~docv:"BYTES" ~doc:"Payload bytes per variable.")
  in
  let ops =
    Arg.(
      value & opt int 200
      & info [ "ops" ] ~docv:"N" ~doc:"Data operations per processor.")
  in
  let zipf =
    Arg.(
      value
      & opt (some zipf_conv) None
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Zipfian popularity with exponent $(docv) >= 0 (0 = uniform). \
             Mutually exclusive with $(b,--hot-cold).")
  in
  let hot_cold =
    Arg.(
      value
      & opt (some hot_cold_conv) None
      & info [ "hot-cold" ] ~docv:"FRAC:WEIGHT"
          ~doc:
            "Hot/cold popularity: the first $(i,FRAC) of the key space draws \
             $(i,WEIGHT) of all accesses (e.g. 0.1:0.9).")
  in
  (* Two popularity flags at once are a usage error, like any bad flag. *)
  let popularity =
    let combine zipf hot_cold =
      match (zipf, hot_cold) with
      | Some _, Some _ ->
          Error (`Msg "--zipf and --hot-cold are mutually exclusive")
      | Some s, None -> Ok (Workload.Spec.Zipf s)
      | None, Some (hot_fraction, hot_weight) ->
          Ok (Workload.Spec.Hot_cold { hot_fraction; hot_weight })
      | None, None -> Ok Workload.Spec.Uniform
    in
    Term.(term_result ~usage:true (const combine $ zipf $ hot_cold))
  in
  let read_ratio =
    Arg.(
      value
      & opt (ratio_conv ~what:"read ratio") 0.9
      & info [ "read-ratio" ] ~docv:"R"
          ~doc:"Fraction of data operations that are reads, in [0,1].")
  in
  let locality =
    Arg.(
      value
      & opt locality_conv Workload.Spec.Global
      & info [ "locality" ] ~docv:"L"
          ~doc:
            "Key choice locality: $(b,global), $(b,local) (processor-local \
             keys only), or $(b,submesh:RADIUS) (keys homed within the given \
             Manhattan radius).")
  in
  let lock_every =
    Arg.(
      value & opt int 0
      & info [ "lock-every" ] ~docv:"N"
          ~doc:"Run every $(docv)-th data op under the key's lock (0 = never).")
  in
  let barrier_every =
    Arg.(
      value & opt int 0
      & info [ "barrier-every" ] ~docv:"N"
          ~doc:"Global barrier after every $(docv)-th op (0 = phase ends only).")
  in
  let think =
    Arg.(
      value & opt float 0.0
      & info [ "think" ] ~docv:"US"
          ~doc:"Local computation after each op, simulated microseconds.")
  in
  let burst =
    Arg.(
      value
      & opt (some burst_conv) None
      & info [ "burst" ] ~docv:"OPS:GAP_US"
          ~doc:
            "Bursty arrivals: pause $(i,GAP_US) microseconds after every \
             $(i,OPS)-th operation.")
  in
  let phases =
    Arg.(
      value & opt int 1
      & info [ "workload-phases" ] ~docv:"N"
          ~doc:"Repeat the load as $(docv) barrier-separated phases.")
  in
  let replay =
    Arg.(
      value
      & opt (some trace_file_conv) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Instead of generating load, replay the DSM access stream of the \
             event trace $(docv) (written by $(b,--events) on any command) \
             against the chosen strategy and seed. Generator options are \
             ignored.")
  in
  let replay_mode =
    Arg.(
      value
      & opt
          (enum
             [ ("closed", Workload.Replay.Closed_loop);
               ("open", Workload.Replay.Open_loop) ])
          Workload.Replay.Closed_loop
      & info [ "replay-mode" ] ~docv:"MODE"
          ~doc:
            "$(b,closed): issue each op as soon as the previous completes; \
             $(b,open): re-insert the recorded inter-op gaps.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI smoke: run a small fixed workload on a 4x4 mesh under both \
             the fixed-home and 4-ary strategies and print both reports.")
  in
  let run dims strategy vars var_size ops popularity read_ratio locality
      lock_every barrier_every think burst phases replay replay_mode smoke seed
      (out, faults) domains =
    note_serial ~what:"workload" domains;
    let w =
      Workload.Spec.make ~num_vars:vars ~var_size ~popularity ~locality
        ~lock_every ~barrier_every
        ~phases:
          (List.init (max 1 phases) (fun _ ->
               Workload.Spec.phase ~read_ratio ~think ?burst ops))
        ~seed ()
    in
    if smoke then (
      Result.iter_error fail (Workload.Spec.validate w);
      let dims = [| 4; 4 |] in
      let w =
        { w with Workload.Spec.num_vars = min vars 64;
          phases = [ Workload.Spec.phase ~read_ratio 100 ] }
      in
      Printf.printf "workload smoke: 4x4 mesh, %d keys, %d ops/proc\n"
        w.Workload.Spec.num_vars 100;
      List.iter
        (fun (name, strategy) ->
          print_workload_result name (Workload.Generator.run ~dims ~strategy w))
        [ ("fixed-home", Dsm.Fixed_home);
          ("4-ary", Dsm.access_tree ~arity:4 ()) ])
    else
      match replay with
      | Some path ->
          let trace = read_replay path in
          execute out
            (spec
               (Replay { path; mode = replay_mode; trace })
               trace.Workload.Replay.dims strategy seed faults)
      | None -> execute out (spec (Workload w) dims strategy seed faults)
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Synthetic DSM load generator and trace replay")
    Term.(
      const run $ mesh_t $ strategy_t $ vars $ var_size $ ops $ popularity
      $ read_ratio $ locality $ lock_every $ barrier_every $ think $ burst
      $ phases $ replay $ replay_mode $ smoke $ seed_t $ obs_opts_t $ domains_t)

let chaos_cmd =
  let mesh =
    Arg.(
      value
      & opt mesh_conv [| 4; 4 |]
      & info [ "mesh" ] ~docv:"RxC" ~doc:"Mesh size (any dimension).")
  in
  let schedules =
    Arg.(
      value & opt int 10
      & info [ "schedules" ] ~docv:"N"
          ~doc:"Number of generated fault schedules to sweep.")
  in
  let ops =
    Arg.(
      value & opt int 60
      & info [ "ops" ] ~docv:"N" ~doc:"Data operations per processor per run.")
  in
  let vars =
    Arg.(
      value & opt int 24
      & info [ "vars" ] ~docv:"N" ~doc:"Shared-variable key space size.")
  in
  let lock_every =
    Arg.(
      value & opt int 4
      & info [ "lock-every" ] ~docv:"N"
          ~doc:"Run every $(docv)-th data op under the key's lock (0 = never).")
  in
  let read_ratio =
    Arg.(
      value
      & opt (ratio_conv ~what:"read ratio") 0.7
      & info [ "read-ratio" ] ~docv:"R"
          ~doc:"Fraction of data operations that are reads, in [0,1].")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:
            "Skip the determinism check (each case is normally run twice and \
             every measurement and fault counter compared).")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Write the campaign's machine-readable JSON report, including \
             every generated fault schedule for replay.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI smoke: a reduced campaign (3 schedules, 30 ops/proc on a 4x4 \
             mesh) with determinism verification on.")
  in
  let strategy_names =
    Arg.(
      value & opt_all string []
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Restrict the campaign to this registry strategy (repeatable). \
                Default: every registered contender. Known names: %s."
               (String.concat ", " (Registry.names ()))))
  in
  let flight_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Arm a flight recorder over the campaign: every run records \
             into a bounded event ring and the first oracle violation dumps \
             it to $(docv) (watchdog trips do not dump — they are routine \
             under injected faults). Forces serial evaluation.")
  in
  let run dims schedules seed ops vars lock_every read_ratio no_verify manifest
      smoke strategy_names domains flight =
    let strategies =
      match strategy_names with
      | [] -> Registry.contenders ()
      | names ->
          List.map
            (fun name ->
              match Registry.find name with
              | Some spec -> (name, spec)
              | None ->
                  Printf.eprintf
                    "divasim chaos: unknown strategy %S (known: %s)\n" name
                    (String.concat ", " (Registry.names ()));
                  exit 2)
            names
    in
    let cfg =
      {
        Workload.Chaos.dims;
        schedules;
        seed;
        ops;
        num_vars = vars;
        lock_every;
        read_ratio;
        verify_determinism = not no_verify;
        strategies;
      }
    in
    let cfg =
      if smoke then
        { cfg with Workload.Chaos.dims = [| 4; 4 |]; schedules = 3; ops = 30;
          verify_determinism = true }
      else cfg
    in
    Printf.printf
      "chaos: %d fault schedules x %d strategies (%s) on %s, %d ops/proc, \
       seed %d%s%s\n"
      cfg.Workload.Chaos.schedules
      (List.length cfg.Workload.Chaos.strategies)
      (String.concat ", "
         (List.map fst cfg.Workload.Chaos.strategies))
      (String.concat "x"
         (List.map string_of_int (Array.to_list cfg.Workload.Chaos.dims)))
      cfg.Workload.Chaos.ops seed
      (if cfg.Workload.Chaos.verify_determinism then " (verified)" else "")
      (if domains > 1 then Printf.sprintf ", %d domains" domains else "");
    let flight =
      Option.map
        (fun path -> Diva_obs.Flight.create ~dump_on_watchdog:false ~path ())
        flight
    in
    let outcomes =
      Run_spec.with_flight flight (fun () ->
          Workload.Chaos.run ~progress:print_endline ~domains ?flight cfg)
    in
    (match flight with
    | Some fl when Diva_obs.Flight.dumped fl ->
        Printf.printf "flight   -> %s\n" (Diva_obs.Flight.path fl)
    | _ -> ());
    let ok = Workload.Chaos.passed outcomes in
    (match manifest with
    | Some path ->
        Diva_obs.Json.to_file path (Workload.Chaos.manifest cfg outcomes);
        Printf.printf "manifest -> %s\n" path
    | None -> ());
    let total f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
    Printf.printf "chaos: %d runs, %d messages lost, %d retransmits: %s\n"
      (List.length outcomes)
      (total (fun o -> o.Workload.Chaos.lost))
      (total (fun o -> o.Workload.Chaos.retransmits))
      (if ok then "all coherent, all deterministic" else "FAILED");
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fault-injection campaign validated by a coherence oracle")
    Term.(
      const run $ mesh $ schedules $ seed_t $ ops $ vars $ lock_every
      $ read_ratio $ no_verify $ manifest $ smoke $ strategy_names $ domains_t
      $ flight_t)

(* ------------------------------------------------------------------ *)
(* Parallel mesh traffic (the Par_engine showcase)                     *)
(* ------------------------------------------------------------------ *)

let traffic_cmd =
  let module Traffic = Diva_simnet.Traffic in
  let rate =
    Arg.(
      value & opt float 0.002
      & info [ "rate" ] ~docv:"R"
          ~doc:"Packet injections per microsecond per node.")
  in
  let horizon =
    Arg.(
      value & opt float 50_000.0
      & info [ "horizon" ] ~docv:"US"
          ~doc:"Stop injecting after $(docv) simulated microseconds.")
  in
  let size =
    Arg.(value & opt int 64 & info [ "size" ] ~doc:"Packet payload bytes.")
  in
  let pattern =
    let pattern_conv =
      Arg.conv
        ( (fun s ->
            match Traffic.pattern_of_string (String.lowercase_ascii s) with
            | Some p -> Ok p
            | None -> Error (`Msg "pattern is uniform, transpose or hotspot")),
          fun fmt p -> Format.fprintf fmt "%s" (Traffic.pattern_name p) )
    in
    Arg.(
      value
      & opt pattern_conv Traffic.Uniform
      & info [ "pattern" ] ~docv:"P"
          ~doc:"Traffic pattern: uniform, transpose or hotspot.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI smoke: a fixed 16x16 run, executed with 1 and with \
             --domains N domains, failing unless the reports are \
             byte-identical.")
  in
  let prof_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "prof" ] ~docv:"FILE"
          ~doc:
            "Write a $(b,diva-prof/1) profile of the run including the \
             parallel engine's per-domain telemetry (busy/stall split, \
             window count, shard imbalance). Render with $(b,divasim \
             profile FILE). Telemetry never changes the simulated results.")
  in
  let run dims rate horizon size pattern smoke seed domains prof =
    let rows, cols =
      match dims with
      | [| r; c |] -> (r, c)
      | _ -> fail "traffic needs a 2-D mesh"
    in
    if smoke then begin
      let domains = max domains 4 in
      let go d =
        Traffic.run ~domains:d ~seed ~size:64 ~rows:16 ~cols:16 ~rate:0.002
          ~horizon:20_000.0 ~pattern:Traffic.Uniform ()
      in
      let t0 = Unix.gettimeofday () in
      let serial = go 1 in
      let t1 = Unix.gettimeofday () in
      let par = go domains in
      let t2 = Unix.gettimeofday () in
      Printf.printf "traffic smoke: 16x16 uniform, seed %d\n" seed;
      Printf.printf "  1 domain : %s  (%.0f ms)\n" (Traffic.render serial)
        ((t1 -. t0) *. 1e3);
      Printf.printf "  %d domains: %s  (%.0f ms)\n" domains
        (Traffic.render par)
        ((t2 -. t1) *. 1e3);
      if Traffic.render serial <> Traffic.render par then begin
        Printf.printf "traffic smoke: FAILED — reports differ across domains\n";
        exit 1
      end;
      Printf.printf "traffic smoke: OK — byte-identical across domain counts\n"
    end
    else begin
      let p = Option.map (fun _ -> Diva_obs.Prof.create ()) prof in
      let telemetry =
        Option.map
          (fun _ -> Diva_simnet.Par_engine.telemetry_create ())
          prof
      in
      Option.iter Diva_obs.Prof.arm p;
      let t0 = Unix.gettimeofday () in
      let go () =
        Traffic.run ~domains ?telemetry ~seed ~size ~rows ~cols ~rate ~horizon
          ~pattern ()
      in
      let r =
        match p with
        | Some p -> Diva_obs.Prof.region p "simulate" go
        | None -> go ()
      in
      let wall = Unix.gettimeofday () -. t0 in
      Printf.printf "traffic %dx%d, %s, rate %g/us/node, horizon %g us, %d \
                     domain%s\n"
        rows cols
        (Traffic.pattern_name pattern)
        rate horizon domains
        (if domains = 1 then "" else "s");
      Printf.printf "%s\n" (Traffic.render r);
      Printf.printf "wall %.1f ms, %.0f events/sec\n" (wall *. 1e3)
        (float_of_int r.Traffic.r_events /. wall);
      match (prof, p, telemetry) with
      | Some path, Some p, Some tl ->
          Diva_obs.Prof.set_par p (Diva_simnet.Par_engine.telemetry_json tl);
          Diva_obs.Json.to_file path (Diva_obs.Prof.to_json p);
          Printf.printf "prof     -> %s\n" path
      | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:"Domain-parallel mesh traffic simulation (conservative PDES)"
       ~man:
         [ `S Manpage.s_description;
           `P
             "Synthetic packet traffic on a 2-D mesh: per-node Poisson \
              injection, dimension-order wormhole routing, per-hop latency \
              and directed-link queueing. The mesh is sharded one row per \
              logical shard and executed by the conservative windowed engine \
              (lookahead = one hop), so $(b,--domains) N runs on N OCaml \
              domains with byte-identical results for every N — including \
              N=1. This is the workload that demonstrates multi-core \
              scaling; the DSM protocol stack itself has zero lookahead and \
              stays serial (see docs/PERFORMANCE.md)." ])
    Term.(
      const run $ mesh_t $ rate $ horizon $ size $ pattern $ smoke $ seed_t
      $ domains_t $ prof_t)

(* ------------------------------------------------------------------ *)
(* Open-loop service scenario                                          *)
(* ------------------------------------------------------------------ *)

module Service = Diva_service

let serve_cmd =
  let keys =
    Arg.(
      value & opt int 4096
      & info [ "keys" ] ~docv:"N" ~doc:"Key space size (one variable per key).")
  in
  let value_size =
    Arg.(
      value & opt int 64
      & info [ "value-size" ] ~docv:"BYTES" ~doc:"Payload bytes per key.")
  in
  let clients =
    Arg.(
      value & opt int 1_000_000
      & info [ "clients" ] ~docv:"N"
          ~doc:"Client population, hashed onto mesh entry nodes.")
  in
  let rate =
    Arg.(
      value & opt float 2_000.0
      & info [ "rate" ] ~docv:"REQ_PER_S"
          ~doc:
            "Mean offered load in requests per simulated second. For scale: \
             a DSM request costs a few simulated milliseconds, so ~2000 \
             req/s saturates a 4x4 mesh.")
  in
  let horizon_ms =
    Arg.(
      value & opt float 400.0
      & info [ "horizon-ms" ] ~docv:"MS"
          ~doc:"Arrival horizon in simulated milliseconds; requests stop \
                arriving after it, but queued ones still drain.")
  in
  let arrival =
    Arg.(
      value
      & opt
          (enum
             [ ("poisson", `Poisson); ("bursty", `Bursty);
               ("diurnal", `Diurnal) ])
          `Poisson
      & info [ "arrival" ] ~docv:"PROC"
          ~doc:
            "Arrival process: $(b,poisson) (memoryless), $(b,bursty) \
             (two-state modulated, 8x bursts) or $(b,diurnal) (raised-cosine \
             intensity, one cycle per horizon).")
  in
  let scenario =
    Arg.(
      value
      & opt
          (enum
             [ ("steady", Service.Spec.Steady);
               ("flash-crowd", Service.Spec.Flash_crowd);
               ("hot-migrate", Service.Spec.Hot_migrate) ])
          Service.Spec.Steady
      & info [ "scenario" ] ~docv:"S"
          ~doc:
            "Key-popularity phase schedule: $(b,steady) Zipf, \
             $(b,flash-crowd) (a mid-run pile-on onto a small hotset), or \
             $(b,hot-migrate) (the hotset's homes walk across the mesh).")
  in
  let zipf =
    Arg.(
      value & opt zipf_conv 0.9
      & info [ "zipf" ] ~docv:"S" ~doc:"Steady-phase Zipf exponent.")
  in
  let read_ratio =
    Arg.(
      value
      & opt (ratio_conv ~what:"read ratio") 0.95
      & info [ "read-ratio" ] ~docv:"R"
          ~doc:"Fraction of requests that are reads, in [0,1].")
  in
  let rates_conv =
    let parse s =
      let parts = String.split_on_char ',' s in
      let rs = List.filter_map float_of_string_opt parts in
      if
        List.length rs = List.length parts
        && rs <> []
        && List.for_all (fun r -> Float.is_finite r && r > 0.0) rs
      then Ok rs
      else
        Error
          (`Msg
             "sweep is a comma-separated list of positive rates (req/s), \
              e.g. 10000,50000,200000")
    in
    Arg.conv
      ( parse,
        fun ppf rs ->
          Format.fprintf ppf "%s"
            (String.concat "," (List.map (Printf.sprintf "%g") rs)) )
  in
  let sweep =
    Arg.(
      value
      & opt (some rates_conv) None
      & info [ "sweep" ] ~docv:"RATES"
          ~doc:
            "Saturation sweep: run the scenario once per offered load in the \
             comma-separated list, detect the load-latency knee, and print \
             the sweep table instead of a single report.")
  in
  let sweep_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "sweep-out" ] ~docv:"FILE"
          ~doc:"Write the machine-readable sweep table (JSON) to $(docv).")
  in
  let threshold =
    Arg.(
      value
      & opt (ratio_conv ~what:"knee threshold") Service.Sweep.default_threshold
      & info [ "knee-threshold" ] ~docv:"R"
          ~doc:
            "A sweep point saturates when goodput/offered falls below \
             $(docv); the knee is the highest load still above it.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI smoke: a short Poisson run on a 4x4 mesh under both the \
             fixed-home and 4-ary strategies, each run twice to verify \
             bit-identical determinism, plus a mini saturation sweep per \
             strategy (honors $(b,--sweep-out)).")
  in
  let run dims strategy keys value_size clients rate horizon_ms arrival
      scenario zipf read_ratio sweep sweep_out threshold smoke seed
      (out, faults) domains =
    if smoke then begin
      let dims = [| 4; 4 |] in
      let keys = min keys 256 in
      let horizon_us = 400_000.0 in
      let spec =
        Service.Spec.make ~keys ~value_size:64 ~clients:10_000 ~rate:1_000.0
          ~horizon_us ~arrival:Service.Arrival.Poisson ~read_ratio:0.95
          ~phases:
            (Service.Spec.scenario_phases Service.Spec.Steady ~keys ~procs:16
               ~zipf:0.9)
          ~seed ()
      in
      Printf.printf
        "service smoke: 4x4 mesh, %d keys, poisson %.0f req/s for %.0f ms\n"
        keys spec.Service.Spec.rate (horizon_us /. 1000.0);
      let ok = ref true in
      let sweeps =
        List.map
          (fun (name, strategy) ->
            let r1 = Service.Engine.run ~dims ~strategy spec in
            let r2 = Service.Engine.run ~dims ~strategy spec in
            if r1 <> r2 then begin
              ok := false;
              Printf.printf "-- %s: NOT deterministic across re-runs\n" name
            end
            else begin
              Printf.printf "-- %s (deterministic re-run verified) --\n" name;
              Run_spec.print_measurements r1.Service.Engine.measurements;
              print_string (Service.Engine.render r1)
            end;
            Service.Sweep.run ~domains ~dims ~strategy
              ~rates:[ 500.0; 1_500.0; 5_000.0 ]
              spec)
          [ ("fixed-home", Dsm.Fixed_home);
            ("4-ary", Dsm.access_tree ~arity:4 ()) ]
      in
      List.iter (fun sw -> print_string (Service.Sweep.render sw)) sweeps;
      List.iter
        (fun sw ->
          match sw.Service.Sweep.sv_knee with
          | Some _ -> ()
          | None ->
              ok := false;
              Printf.printf "-- %s: no sustainable load found\n"
                sw.Service.Sweep.sv_strategy)
        sweeps;
      (match sweep_out with
      | Some path ->
          Diva_obs.Json.to_file path
            (Service.Sweep.to_json ~params:(Service.Spec.to_params spec)
               sweeps);
          Printf.printf "sweep    -> %s\n" path
      | None -> ());
      if not !ok then exit 1
    end
    else begin
      let horizon_us = horizon_ms *. 1000.0 in
      let shape =
        match arrival with
        | `Poisson -> Service.Arrival.Poisson
        | `Bursty ->
            Service.Arrival.Bursty
              { mult = 8.0; mean_on_us = horizon_us /. 10.0;
                mean_off_us = horizon_us /. 4.0 }
        | `Diurnal ->
            Service.Arrival.Diurnal { trough = 0.2; period_us = horizon_us }
      in
      let procs = Array.fold_left ( * ) 1 dims in
      let service =
        Service.Spec.make ~keys ~value_size ~clients ~rate ~horizon_us
          ~arrival:shape ~read_ratio
          ~phases:(Service.Spec.scenario_phases scenario ~keys ~procs ~zipf)
          ~seed ()
      in
      let run =
        spec (Serve { spec = service; scenario }) dims strategy seed faults
      in
      Result.iter_error fail (Run_spec.validate run);
      match (sweep, strategy) with
      | Some rates, Runner.Strategy strategy ->
          let sw =
            Service.Sweep.run ~threshold ~faults ~domains ~dims ~strategy
              ~rates service
          in
          Printf.printf "service sweep %s, strategy %s, scenario %s, %s\n"
            (String.concat "x" (List.map string_of_int (Array.to_list dims)))
            (Dsm.strategy_name strategy)
            (Service.Spec.scenario_name scenario)
            (Service.Arrival.shape_name shape);
          print_string (Service.Sweep.render sw);
          (match sweep_out with
          | Some path ->
              Diva_obs.Json.to_file path
                (Service.Sweep.to_json ~params:(Run_spec.params run) [ sw ]);
              Printf.printf "sweep    -> %s\n" path
          | None -> ())
      | _ ->
          note_serial ~what:"serve (single run; use --sweep to fan out)"
            domains;
          execute out run
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-loop key-value service: SLO tails, goodput and saturation \
          sweeps"
       ~man:
         [ `S Manpage.s_description;
           `P
             "Simulates a production-shaped service on the mesh: an open-loop \
              arrival process (Poisson, bursty or diurnal) drives a client \
              population hashed onto entry nodes, each request is served \
              through the DSM under the chosen strategy, and the report shows \
              exact-order-statistic latency percentiles (p50/p99/p999 with a \
              minimum-sample guard), goodput vs offered load, and per-node \
              queue depth high-water marks. Because arrivals never wait for \
              completions, queues genuinely grow past saturation. $(b,--sweep) \
              steps the offered load and reports the load-latency knee; \
              $(b,--scenario) switches the key-popularity phase schedule. \
              Composes with $(b,--faults), $(b,--events) (post-mortem via \
              $(b,divasim analyze --offline), replay via $(b,divasim workload \
              --replay)) and the other observability artifacts." ])
    Term.(
      const run $ mesh_t $ strategy_t $ keys $ value_size $ clients $ rate
      $ horizon_ms $ arrival $ scenario $ zipf $ read_ratio $ sweep $ sweep_out
      $ threshold $ smoke $ seed_t $ obs_opts_t $ domains_t)

(* ------------------------------------------------------------------ *)
(* profile: render prof.json / flight-recorder dumps                   *)
(* ------------------------------------------------------------------ *)

let read_json_file path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no such file" path)
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | raw ->
        Result.map_error
          (fun e -> Printf.sprintf "%s: %s" path e)
          (Diva_obs.Json.of_string raw)
    | exception Sys_error e -> Error e

let profile_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "A $(b,diva-prof/1) profile (from $(b,--prof)) or a \
             $(b,diva-flight/1) crash dump (from $(b,--flight)).")
  in
  let run file =
    match read_json_file file with
    | Error e ->
        Printf.eprintf "divasim: %s\n" e;
        exit 1
    | Ok j -> (
        (* Dispatch on the document's schema tag. *)
        let rendered =
          match Option.bind (Diva_obs.Json.member "schema" j)
                  Diva_obs.Json.to_str
          with
          | Some "diva-flight/1" -> Diva_obs.Flight.report j
          | _ -> Diva_obs.Prof.report j
        in
        match rendered with
        | Ok text -> print_string text
        | Error e ->
            Printf.eprintf "divasim: %s: %s\n" file e;
            exit 1)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Render a self-profile or flight-recorder dump as a report"
       ~man:
         [ `S Manpage.s_description;
           `P
             "Reads a JSON artifact produced by $(b,--prof) (schema \
              $(b,diva-prof/1): subsystem CPU split, host window series, GC \
              totals, region timers, parallel-engine telemetry) or by the \
              flight recorder ($(b,--flight), schema $(b,diva-flight/1): \
              dump reason, recent-event ring, health snapshots) and prints \
              a human-readable report." ])
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* trace: multi-run trace-file tooling                                 *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let inputs =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Event-trace JSONL files (produced by $(b,--events)).")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Merged output file.")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Drop each run's pre-quiescence noise: events before its first \
             DSM access (variable placement, warm-up chatter). Variable \
             declarations always survive — replay and analysis need them.")
  in
  let merge inputs output compact =
    match
      Diva_obs.Streaming.merge_files ~compact ~inputs ~output ()
    with
    | Error e ->
        Printf.eprintf "divasim: trace merge: %s\n" e;
        exit 1
    | Ok st ->
        Printf.printf "merged   -> %s (%d runs, %d events%s)\n" output
          st.Diva_obs.Streaming.ms_runs st.Diva_obs.Streaming.ms_events
          (if compact then
             Printf.sprintf ", %d dropped" st.Diva_obs.Streaming.ms_dropped
           else "")
  in
  let merge_cmd =
    Cmd.v
      (Cmd.info "merge"
         ~doc:"Merge event traces from several runs into one ordered stream"
         ~man:
           [ `S Manpage.s_description;
             `P
               "K-way merges the input traces by event timestamp (run index \
                breaks ties; within one run the original order is kept \
                exactly, so the output is deterministic). The output is the \
                $(b,diva-event-trace-merged) format: a header carrying every \
                input's original header, then one JSON line per event with a \
                leading $(b,run) field naming its source (0-based, in \
                argument order). $(b,--compact) additionally drops each \
                run's setup noise before its first DSM access." ])
      Term.(const merge $ inputs $ output $ compact)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Event-trace file tooling (merge, compaction)")
    [ merge_cmd ]

let () =
  (* The simulator allocates short-lived protocol records at a high rate;
     the default 256k-word minor heap forces a minor collection every few
     milliseconds of simulation. 1M words measures ~10% faster on the
     paper-scale runs without hurting cache behaviour (8M measures slower).
     OCAMLRUNPARAM still overrides via Gc.set semantics at startup. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1_048_576 };
  let doc = "DIVA: simulated data management in mesh networks (SPAA'99)" in
  let info = Cmd.info "divasim" ~doc in
  let group =
    Cmd.group info
      [ matmul_cmd; bitonic_cmd; nbody_cmd; analyze_cmd; workload_cmd;
        chaos_cmd; traffic_cmd; serve_cmd; profile_cmd; trace_cmd ]
  in
  (* [~catch:false] so an escaping exception reaches us: if a flight
     recorder is armed, the crash leaves a post-mortem dump before the
     process dies. Exit 125 mirrors cmdliner's internal-error code. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception e ->
      Printf.eprintf "divasim: uncaught exception: %s\n" (Printexc.to_string e);
      exit 125
