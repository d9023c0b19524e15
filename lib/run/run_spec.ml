open Diva_obs
module Runner = Diva_harness.Runner
module Barnes_hut = Diva_apps.Barnes_hut
module Network = Diva_simnet.Network
module Workload = Diva_workload
module Service = Diva_service

type app =
  | Matmul of { block : int; compute : bool }
  | Bitonic of { keys : int }
  | Barnes_hut of Barnes_hut.config
  | Workload of Workload.Spec.t
  | Replay of {
      path : string;
      mode : Workload.Replay.mode;
      trace : Workload.Replay.t;
    }
  | Serve of { spec : Service.Spec.t; scenario : Service.Spec.scenario }

type t = {
  app : app;
  dims : int array;
  strategy : Runner.strategy_choice;
  seed : int;
  faults : Diva_faults.Schedule.t;
}

let ( let* ) = Result.bind

let validate t =
  let dsm why =
    match t.strategy with Runner.Strategy _ -> Ok () | _ -> Error why
  in
  let drives_dsm = dsm "this command drives the DSM: pick a DSM strategy" in
  let procs = Array.fold_left ( * ) 1 t.dims in
  if t.dims = [||] || Array.exists (fun d -> d < 1) t.dims then
    Error "mesh dimensions must be >= 1"
  else
    match t.app with
    | Matmul _ -> (
        match t.dims with
        | [| r; c |] when r = c -> Ok ()
        | _ -> Error "matmul needs a square 2-D mesh")
    | Bitonic _ when procs land (procs - 1) <> 0 ->
        Error "bitonic needs a power-of-two number of processors"
    | Bitonic _ -> Ok ()
    | Barnes_hut _ -> dsm "no hand-optimized baseline exists for Barnes-Hut"
    | Workload w ->
        let* () = drives_dsm in
        Workload.Spec.validate w
    | Replay { trace; _ } ->
        let* () = drives_dsm in
        if trace.Workload.Replay.dims = t.dims then Ok ()
        else Error "a replay runs on its trace's mesh"
    | Serve { spec; _ } ->
        let* () = drives_dsm in
        Service.Spec.validate spec

let name t =
  match t.app with
  | Matmul _ -> "matmul"
  | Bitonic _ -> "bitonic"
  | Barnes_hut _ -> "barnes-hut"
  | Workload _ -> "workload"
  | Replay _ -> "workload-replay"
  | Serve _ -> "serve"

let params t =
  match t.app with
  | Matmul { block; compute } ->
      [ ("block", Json.Int block); ("compute", Json.Bool compute) ]
  | Bitonic { keys } -> [ ("keys", Json.Int keys) ]
  | Barnes_hut cfg ->
      [ ("bodies", Json.Int cfg.Barnes_hut.nbodies);
        ("steps", Json.Int cfg.Barnes_hut.steps);
        ("theta", Json.Float cfg.Barnes_hut.theta) ]
  | Workload w -> Workload.Spec.to_params w
  | Replay { path; _ } -> [ ("replay", Json.String path) ]
  | Serve { spec; scenario } ->
      Service.Spec.to_params spec
      @ [ ("scenario", Json.String (Service.Spec.scenario_name scenario)) ]

let mesh_str dims =
  String.concat "x" (List.map string_of_int (Array.to_list dims))

let dims_json dims =
  Json.List (List.map (fun d -> Json.Int d) (Array.to_list dims))

(* The report's first line. *)
let headline t =
  let strategy = Runner.name t.strategy and mesh = mesh_str t.dims in
  match t.app with
  | Matmul { block; _ } ->
      Printf.sprintf "matmul %s, block %d, strategy %s\n" mesh block strategy
  | Bitonic { keys } ->
      Printf.sprintf "bitonic %s, %d keys/proc, strategy %s\n" mesh keys
        strategy
  | Barnes_hut cfg ->
      Printf.sprintf
        "barnes-hut %s, %d bodies, theta %.2f, strategy %s\n\
         -- measured steps, all phases --\n"
        mesh cfg.Barnes_hut.nbodies cfg.Barnes_hut.theta strategy
  | Workload w ->
      Printf.sprintf "workload %s, strategy %s, %s popularity, %s locality\n"
        mesh strategy
        (Workload.Spec.popularity_name w.Workload.Spec.popularity)
        (Workload.Spec.locality_name w.Workload.Spec.locality)
  | Replay { path; mode; trace } ->
      Printf.sprintf "replay %s (%s, %d ops on %s), strategy %s\n" path
        (Workload.Replay.mode_name mode)
        (Workload.Replay.num_ops trace)
        mesh strategy
  | Serve { spec; scenario } ->
      Printf.sprintf
        "serve %s, strategy %s, scenario %s, %s, %d clients, %d keys\n" mesh
        strategy
        (Service.Spec.scenario_name scenario)
        (Service.Arrival.shape_name spec.Service.Spec.arrival)
        spec.Service.Spec.clients spec.Service.Spec.keys

type outcome = {
  measurements : Runner.measurements;
  fields : (string * Json.t) list;  (* app-specific manifest measurements *)
  report : string;  (* app-specific report text *)
  phases : (Barnes_hut.phase * Runner.measurements) list;
  net : Network.t;
}

(* The dispatch to the engines, for a validated run. *)
let run obs t =
  let net = ref None and seed = t.seed and dims = t.dims in
  let on_net n = net := Some n in
  let strategy () =
    match t.strategy with
    | Runner.Strategy s -> s
    | Runner.Hand_optimized -> invalid_arg "Run_spec.run: not a DSM strategy"
  in
  let outcome ?(fields = []) ?(report = "") ?(phases = []) measurements =
    { measurements; fields; report; phases; net = Option.get !net }
  in
  let generated (r : Workload.Generator.result) =
    let l = r.Workload.Generator.latency in
    outcome r.Workload.Generator.measurements
      ~fields:(Workload.Latency.to_fields l) ~report:(Workload.Latency.render l)
  in
  match t.app with
  | Matmul { block; compute } ->
      outcome
        (Runner.run_matmul ~seed ~obs ~on_net ~dims ~block ~compute t.strategy)
  | Bitonic { keys } ->
      outcome (Runner.run_bitonic ~seed ~obs ~on_net ~dims ~keys t.strategy)
  | Barnes_hut cfg ->
      let r =
        Runner.run_barnes_hut ~seed ~obs ~on_net ~dims ~cfg (strategy ())
      in
      outcome r.Runner.bh_total
        ~phases:
          (List.map
             (fun ph -> (ph, r.Runner.bh_phase ph))
             Barnes_hut.[ Build; Com; Partition; Force; Advance; Space ])
  | Workload w ->
      generated
        (Workload.Generator.run ~obs ~on_net ~dims ~strategy:(strategy ())
           { w with Workload.Spec.seed })
  | Replay { mode; trace; _ } ->
      generated
        (Workload.Replay.run ~obs ~on_net ~seed ~mode ~strategy:(strategy ())
           trace)
  | Serve { spec; _ } ->
      let r =
        Service.Engine.run ~obs ~on_net ~dims ~strategy:(strategy ())
          { spec with Service.Spec.seed }
      in
      outcome r.Service.Engine.measurements
        ~fields:(Service.Engine.result_fields r)
        ~report:(Service.Engine.render r)

(* The run manifest ([diva-run-manifest/1]), embedded in the Chrome
   trace's metadata and writable standalone. *)
let manifest t o =
  Json.Obj
    [ ("schema", Json.String "diva-run-manifest/1");
      ("app", Json.String (name t));
      ("mesh", dims_json t.dims);
      ("strategy", Json.String (Runner.name t.strategy));
      ("seed", Json.Int t.seed);
      ("params", Json.Obj (params t));
      ("measurements",
       Json.Obj
         (Runner.measurement_fields o.measurements
         @ o.fields @ Runner.fault_fields o.net)) ]

type outputs = {
  trace_file : string option;
  metrics_file : string option;
  prom_file : string option;
  manifest_file : string option;
  events_file : string option;
  prof_file : string option;
  flight_file : string option;
  ticker : bool;
  sample_us : float;
  heatmap : bool;
  phases : bool;
}

let no_outputs =
  { trace_file = None; metrics_file = None; prom_file = None;
    manifest_file = None; events_file = None; prof_file = None;
    flight_file = None; ticker = false; sample_us = 1000.0; heatmap = false;
    phases = false }

type analysis = {
  top : int;
  windows : int;
  json : string option;
  snapshots : bool;
}

let preflight paths =
  let missing path =
    let dir = Filename.dirname path in
    not (Sys.file_exists dir && Sys.is_directory dir)
  in
  match List.find_opt missing (List.filter_map Fun.id paths) with
  | None -> Ok ()
  | Some path ->
      Error
        (Printf.sprintf "cannot write %s: %s is not a directory" path
           (Filename.dirname path))

let print_measurements (m : Runner.measurements) =
  Printf.printf "time                 %.3f s\n" (m.Runner.time /. 1e6);
  Printf.printf "congestion           %d messages / %d bytes\n"
    m.Runner.congestion_msgs m.Runner.congestion_bytes;
  Printf.printf "total load           %d messages / %d bytes\n"
    m.Runner.total_msgs m.Runner.total_bytes;
  Printf.printf "startups             %d\n" m.Runner.startups;
  Printf.printf "max local compute    %.3f s\n" (m.Runner.max_compute /. 1e6);
  if m.Runner.dsm_reads > 0 then
    Printf.printf "reads / cache hits   %d / %d (%.1f%%)\n" m.Runner.dsm_reads
      m.Runner.dsm_read_hits
      (100.0 *. float_of_int m.Runner.dsm_read_hits
      /. float_of_int (max 1 m.Runner.dsm_reads));
  if m.Runner.evictions > 0 then
    Printf.printf "LRU evictions        %d\n" m.Runner.evictions

let print_report out t o =
  if out.heatmap then print_string (Diva_harness.Heatmap.render o.net);
  print_string (headline t);
  print_measurements o.measurements;
  Option.iter
    (fun f ->
      let open Diva_faults.Faults in
      Printf.printf
        "faults               %d lost (%d drop, %d down, %d crash), %d \
         retransmits, %d reissues\n"
        (lost_total f) (lost_random f) (lost_link_down f) (lost_crashed f)
        (retransmits f) (dsm_reissues f))
    (Network.faults o.net);
  print_string o.report;
  if out.phases then
    List.iter
      (fun (ph, m) ->
        Printf.printf "-- phase: %s --\n" (Barnes_hut.phase_name ph);
        print_measurements m)
      o.phases

let print_events prefix (path, count) =
  Printf.printf "%sevents   -> %s (%d events)\n" prefix path count

let analysis_report ?offline ?events a (h : Streaming.header) summary =
  let module Heatmap = Diva_harness.Heatmap in
  Printf.printf "analyze %s, %s mesh, strategy %s, seed %d\n" h.Streaming.h_app
    (mesh_str h.Streaming.h_dims) h.Streaming.h_strategy h.Streaming.h_seed;
  Option.iter
    (fun (path, peak) ->
      Printf.printf "offline: %s (%s v%d), peak residency %d message records\n"
        path Streaming.format_name h.Streaming.h_version peak)
    offline;
  print_newline ();
  print_string (Analysis.render_summary summary);
  Option.iter (print_events "\n") events;
  if a.snapshots then begin
    let mesh = Diva_mesh.Mesh.create_nd ~dims:h.Streaming.h_dims in
    List.iter
      (fun w ->
        print_newline ();
        print_string
          (Heatmap.render_grid mesh
             ~label:
               (Printf.sprintf "window %.0f-%.0f us" w.Analysis.w_start
                  w.Analysis.w_finish)
             (Heatmap.nodes_of_link_values mesh w.Analysis.w_link_bytes)))
      summary.Analysis.sm_windows
  end;
  Option.iter
    (fun path ->
      let meta =
        [ ("app", Json.String h.Streaming.h_app);
          ("dims", dims_json h.Streaming.h_dims);
          ("strategy", Json.String h.Streaming.h_strategy);
          ("seed", Json.Int h.Streaming.h_seed) ]
        @ h.Streaming.h_params
      in
      Json.to_file path (Analysis.summary_to_json ~meta summary);
      Printf.printf "\nanalysis -> %s\n" path)
    a.json

let with_flight flight f =
  try f ()
  with e ->
    Option.iter
      (fun fl ->
        Flight.dump fl ~reason:("uncaught exception: " ^ Printexc.to_string e);
        Printf.eprintf "divasim: flight-recorder dump -> %s\n" (Flight.path fl))
      flight;
    raise e

let write_text path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let write_artifacts ?events out t (obs : Runner.obs) o =
  if out.ticker then prerr_newline ();
  Option.iter (print_events "") events;
  (* Prof.to_json disarms the sampler: compute the document once, for
     prof.json and the Chrome trace's counter tracks. *)
  let prof_doc = Option.map Prof.to_json obs.Runner.obs_prof in
  Option.iter
    (fun path ->
      Chrome_trace.write_file ~path
        ~num_nodes:(Array.fold_left ( * ) 1 t.dims)
        ~metadata:[ ("diva", manifest t o) ]
        ?prof:prof_doc
        (Trace.events obs.Runner.obs_trace);
      Printf.printf "trace    -> %s (%d events)\n" path
        (Trace.count obs.Runner.obs_trace))
    out.trace_file;
  Option.iter
    (fun m ->
      Option.iter
        (fun path ->
          if Filename.check_suffix path ".json" then
            Json.to_file path (Metrics.to_json m)
          else write_text path (Metrics.to_csv m);
          Printf.printf "metrics  -> %s (%d samples)\n" path
            (Metrics.num_rows m))
        out.metrics_file;
      Option.iter
        (fun path ->
          write_text path
            (Metrics.to_prometheus
               ~labels:[ ("app", name t); ("strategy", Runner.name t.strategy) ]
               m);
          Printf.printf "prom     -> %s\n" path)
        out.prom_file)
    obs.Runner.obs_metrics;
  (match (out.prof_file, prof_doc) with
  | Some path, Some doc ->
      Json.to_file path doc;
      Printf.printf "prof     -> %s\n" path
  | _ -> ());
  Option.iter
    (fun path ->
      Json.to_file path (manifest t o);
      Printf.printf "manifest -> %s\n" path)
    out.manifest_file

(* The sink chain, in the order an event reaches it: the event file, the
   analyzer, the in-memory list the Chrome trace is rendered from, and
   the flight recorder's ring, which must wrap the sink before anyone
   stores it. With [--events] alone recording costs O(1) memory. *)
let make_obs out t ~events_oc ~analyzer =
  let trace =
    let keep = out.trace_file <> None in
    match
      Option.to_list (Option.map Trace.write_event events_oc)
      @ Option.to_list (Option.map Streaming.feed analyzer)
    with
    | [] -> if keep then Trace.create () else Trace.null
    | fs ->
        let f =
          match fs with [ f ] -> f | fs -> fun e -> List.iter (( |> ) e) fs
        in
        if keep then Trace.tee f else Trace.stream f
  in
  let flight =
    Option.map (fun path -> Flight.create ~path ()) out.flight_file
  in
  let prof =
    if out.prof_file = None && not out.ticker then None
    else
      let p = Prof.create () in
      if out.ticker then
        Prof.set_ticker p (fun line -> Printf.eprintf "\r%-78s%!" line);
      Some p
  in
  { Runner.obs_trace =
      Option.fold ~none:trace ~some:(fun fl -> Flight.wrap fl trace) flight;
    obs_metrics =
      (if out.metrics_file = None && out.prom_file = None then None
       else Some (Metrics.create ()));
    obs_sample_interval = out.sample_us;
    obs_faults = t.faults;
    obs_prof = prof;
    obs_flight = flight }

let execute ?analyze out t =
  let* () = validate t in
  let* () =
    preflight
      [ out.trace_file; out.metrics_file; out.prom_file; out.manifest_file;
        out.events_file; out.prof_file; out.flight_file;
        Option.bind analyze (fun a -> a.json) ]
  in
  let m = Diva_simnet.Machine.gcel in
  let overheads =
    { Analysis.send_overhead = m.Diva_simnet.Machine.send_overhead;
      recv_overhead = m.Diva_simnet.Machine.recv_overhead;
      local_overhead = m.Diva_simnet.Machine.local_overhead }
  in
  let header =
    Streaming.make_header ~params:(params t) ~dims:t.dims ~seed:t.seed
      ~overheads ~strategy:(Runner.name t.strategy)
      ~app:
        (* analyze has always labelled a replayed trace "replay" *)
        (match (analyze, t.app) with Some _, Replay _ -> "replay" | _ -> name t)
      ()
  in
  let analyzer =
    Option.map
      (fun a ->
        (a, Streaming.create ~top_k:a.top ~num_windows:a.windows overheads))
      analyze
  in
  try
    let events_oc = Option.map open_out out.events_file in
    Option.iter (fun oc -> Streaming.write_header oc header) events_oc;
    let obs = make_obs out t ~events_oc ~analyzer:(Option.map snd analyzer) in
    with_flight obs.Runner.obs_flight @@ fun () ->
    try
      let o = run obs t in
      Option.iter close_out events_oc;
      let events =
        Option.map
          (fun p -> (p, Trace.count obs.Runner.obs_trace))
          out.events_file
      in
      (match analyzer with
      | Some (a, an) ->
          analysis_report ?events a header (Streaming.finalize an);
          write_artifacts out t obs o
      | None ->
          print_report out t o;
          write_artifacts ?events out t obs o);
      Ok ()
    with Sys_error e -> Error e
  with Sys_error e -> Error e
