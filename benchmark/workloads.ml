(* The five benchmark workloads, driven through the library's public
   functions only. Each one is run in a fresh child process (see run.ml);
   the functions here are what a child executes. Every layer is timed from
   outside, around the calls into it. *)

module Json = Diva_obs.Json
module Prof = Diva_obs.Prof
module Trace = Diva_obs.Trace
module Streaming = Diva_obs.Streaming
module Flight = Diva_obs.Flight
module Network = Diva_simnet.Network
module Sim = Diva_simnet.Sim
module Link_stats = Diva_simnet.Link_stats
module Traffic = Diva_simnet.Traffic
module Par_engine = Diva_simnet.Par_engine
module Dsm = Diva_core.Dsm
module Matmul = Diva_apps.Matmul
module Barnes_hut = Diva_apps.Barnes_hut
module Vec = Diva_apps.Vec
module Runner = Diva_harness.Runner
module Engine = Diva_service.Engine
module Slo = Diva_service.Slo
module Sspec = Diva_service.Spec

type t = Matmul | Barnes_hut | Serve | Traffic | Postmortem

let all = [ Matmul; Barnes_hut; Serve; Traffic; Postmortem ]

let name = function
  | Matmul -> "matmul-32"
  | Barnes_hut -> "barnes-hut-8"
  | Serve -> "serve-zipf"
  | Traffic -> "traffic-64"
  | Postmortem -> "postmortem-16"

let of_name s = List.find_opt (fun w -> name w = s) all

(* What a child measures: [Run] is one whole untraced run, [Setup] stops
   before the first simulated event, [Traced] is the profiled run, and
   [Serial] is traffic on one domain (the base of par.speedup). *)
type kind = Run | Setup | Traced | Serial

let kind_name = function
  | Run -> "run"
  | Setup -> "setup"
  | Traced -> "traced"
  | Serial -> "serial"

let kind_of_name = function
  | "run" -> Some Run
  | "setup" -> Some Setup
  | "traced" -> Some Traced
  | "serial" -> Some Serial
  | _ -> None

let clock = Unix.gettimeofday

(* Peak resident set of this process. Unlike top_heap_words it includes
   fiber stacks and the runtime's own memory. *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> 0.0
      in
      go ())

(* Gc.quick_stat, not Gc.minor_words: the latter counts only the calling
   domain and would halve traffic's allocation at two domains. quick_stat
   adds a domain's words only when its minor heap is collected, so collect
   first. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* Traffic runs on two domains, never more than the machine recommends. *)
let traffic_domains () = max 1 (min 2 (Domain.recommended_domain_count ()))

let fourary = Dsm.access_tree ~arity:4 ()

(* ------------------------------------------------------------------ *)
(* Sizes                                                                *)
(* ------------------------------------------------------------------ *)

type sizes = {
  mm_side : int;
  mm_block : int;
  bh_side : int;
  bh_bodies : int;
  sv_side : int;
  sv_keys : int;
  sv_rate : float;
  sv_horizon_us : float;
  tr_side : int;
  tr_rate : float;
  tr_horizon_us : float;
  pm_side : int;
  pm_block : int;
}

(* serve offers 1500 req/s, 60% of the 4-ary knee: at 2000 req/s its mean
   latency varied 9.4% (interquartile range over median) between ten seeds,
   at 1500 by 2.3%. *)
let full =
  {
    mm_side = 32; mm_block = 1024; bh_side = 8; bh_bodies = 2000; sv_side = 16;
    sv_keys = 4096; sv_rate = 1500.0; sv_horizon_us = 30e6; tr_side = 64;
    tr_rate = 0.0005; tr_horizon_us = 100_000.0; pm_side = 16; pm_block = 1024;
  }

let smoke =
  {
    mm_side = 4; mm_block = 64; bh_side = 2; bh_bodies = 64; sv_side = 4;
    sv_keys = 256; sv_rate = 500.0; sv_horizon_us = 200_000.0; tr_side = 8;
    tr_rate = 0.002; tr_horizon_us = 2_000.0; pm_side = 4; pm_block = 64;
  }

(* ------------------------------------------------------------------ *)
(* What a child reports                                                 *)
(* ------------------------------------------------------------------ *)

(* [sim] holds the simulated outputs. They are folded into the digest and
   must be bit-identical across every repetition of one seed, traced or
   not. [host] holds host-clock measurements and layer counters. *)
type report = {
  sim : (string * Json.t) list;
  checks : (string * bool) list;
  host : (string * float) list;
}

let digest sim = Digest.to_hex (Digest.string (Json.to_string (Json.Obj sim)))

let report_json r =
  Json.Obj
    [
      ("digest", Json.String (digest r.sim));
      ("sim", Json.Obj r.sim);
      ("checks", Json.Obj (List.map (fun (k, b) -> (k, Json.Bool b)) r.checks));
      ("host", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.host));
    ]

(* The profiler's CPU-sample split, as shares of all samples. *)
let prof_shares p =
  let counts =
    match Json.member "subsystems" (Prof.to_json p) with
    | Some (Json.Obj kv) ->
        List.map (fun (k, v) -> (k, Option.value ~default:0 (Json.to_int v))) kv
    | _ -> []
  in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  List.map
    (fun (k, c) ->
      ("prof." ^ k, if total = 0 then 0.0 else float_of_int c /. float_of_int total))
    counts

(* Queue-depth samples, a growable int buffer. *)
type depths = { mutable d : int array; mutable n : int }

let depths () = { d = Array.make 4096 0; n = 0 }

let push_depth s x =
  if s.n = Array.length s.d then begin
    let d = Array.make (2 * s.n) 0 in
    Array.blit s.d 0 d 0 s.n;
    s.d <- d
  end;
  s.d.(s.n) <- x;
  s.n <- s.n + 1

let depth_fields s =
  let a = Array.init s.n (fun i -> float_of_int s.d.(i)) in
  [
    ("sim.queue_depth_p50", Diva_util.Stats.percentile 50.0 a);
    ("sim.queue_depth_max", Diva_util.Stats.percentile 100.0 a);
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Simulated outputs and per-layer counters shared by every workload that
   runs the DSM over Network. *)
let network_outputs (m : Runner.measurements) ~events ~latency_us =
  [
    ("events", Json.Int events);
    ("sim_time_us", Json.Float m.Runner.time);
    ("latency_us", Json.Float latency_us);
    ("startups", Json.Int m.Runner.startups);
    ("congestion_bytes", Json.Int m.Runner.congestion_bytes);
    ("congestion_msgs", Json.Int m.Runner.congestion_msgs);
    ("total_msgs", Json.Int m.Runner.total_msgs);
    ("total_bytes", Json.Int m.Runner.total_bytes);
    ("dsm_reads", Json.Int m.Runner.dsm_reads);
    ("dsm_read_hits", Json.Int m.Runner.dsm_read_hits);
    ("dsm_evictions", Json.Int m.Runner.evictions);
  ]

let network_counters (m : Runner.measurements) ~events ~dsm_ops ~sim_s ~words =
  let ev = float_of_int events in
  [
    ("sim.events", ev);
    ("sim.events_per_s", ev /. sim_s);
    ("sim.alloc_words_per_event", words /. ev);
    ("network.msgs_per_event", ratio m.Runner.startups events);
    ("network.hops_per_msg", ratio m.Runner.total_msgs m.Runner.startups);
    ("network.sim_time_s", m.Runner.time /. 1e6);
    ("network.congestion_kib", float_of_int m.Runner.congestion_bytes /. 1024.0);
    ("dsm.ops", float_of_int dsm_ops);
    ("dsm.read_hit_ratio", ratio m.Runner.dsm_read_hits m.Runner.dsm_reads);
    ("dsm.evictions", float_of_int m.Runner.evictions);
  ]

(* ------------------------------------------------------------------ *)
(* DSM applications: matmul, Barnes-Hut, postmortem                     *)
(* ------------------------------------------------------------------ *)

(* Every processor's program is one unit of work released at time 0; its
   latency is the time its fiber returns. Recording it schedules nothing. *)
let spawn_timed net fiber =
  let done_at = Array.make (Network.num_nodes net) 0.0 in
  for p = 0 to Network.num_nodes net - 1 do
    Network.spawn net p (fun () ->
        fiber p;
        done_at.(p) <- Network.now net)
  done;
  done_at

(* Extra simulated outputs, checks and host fields of one application. *)
type extras = (string * Json.t) list * (string * bool) list * (string * float) list

(* What an application adds to the shared skeleton: its fiber body, and
   [finish], which runs after the drain while the clock still runs
   (postmortem analyzes its trace there). [finish ()] returns the
   application's extras, computed once the clock has stopped, given the
   host time of the simulate step. *)
type app = { fiber : int -> unit; finish : unit -> simulate_s:float -> extras }

(* Build the network with [trace] installed (and the profiler on the
   traced run), let [make] create the application, stop there on [Setup],
   otherwise run to drain. *)
let dsm_run kind ~seed ~side ?(trace = Trace.null) make =
  let prof = if kind = Traced then Some (Prof.create ()) else None in
  let obs = { Runner.null_obs with Runner.obs_trace = trace; obs_prof = prof } in
  let t0 = clock () in
  let net = Network.create ~seed ~rows:side ~cols:side () in
  Runner.install_obs net obs;
  let dsm = Dsm.create net ~strategy:fourary () in
  let app = make ~prof dsm in
  let done_at = spawn_timed net app.fiber in
  let t1 = clock () in
  if kind = Setup then { sim = []; checks = []; host = [ ("setup_s", t1 -. t0) ] }
  else begin
    let sim = Network.sim net in
    let depth = depths () in
    if kind = Traced then
      Sim.add_advance_hook sim (fun _ _ -> push_depth depth (Sim.pending sim));
    let w0 = minor_words () in
    Network.run net;
    let t2 = clock () in
    let words = minor_words () -. w0 in
    let extras = app.finish () in
    let t3 = clock () in
    let app_sim, checks, app_host = extras ~simulate_s:(t2 -. t1) in
    let events = Sim.events_executed sim in
    let m = Runner.collect net (Some dsm) in
    let profiled =
      match prof with Some p -> depth_fields depth @ prof_shares p | None -> []
    in
    {
      sim =
        network_outputs m ~events ~latency_us:(Diva_util.Stats.mean done_at)
        @ [ ("dsm_writes", Json.Int (Dsm.writes dsm)) ]
        @ app_sim;
      checks;
      host =
        [ ("wall_s", t3 -. t0); ("setup_s", t1 -. t0) ]
        @ network_counters m ~events
            ~dsm_ops:(Dsm.reads dsm + Dsm.writes dsm)
            ~sim_s:(t2 -. t1) ~words
        @ app_host @ profiled;
    }
  end

let matmul_app ~block dsm =
  let app = Matmul.setup dsm { Matmul.block; compute = false } in
  {
    fiber = Matmul.fiber app;
    finish =
      (fun () ~simulate_s:_ ->
        ([], [ ("reads_equal_blocks_read", Dsm.reads dsm = Matmul.blocks_read app) ], []));
  }

let matmul kind ~seed sz =
  dsm_run kind ~seed ~side:sz.mm_side (fun ~prof:_ dsm ->
      matmul_app ~block:sz.mm_block dsm)

let bodies_digest bodies =
  let b = Buffer.create (Array.length bodies * 128) in
  Array.iter
    (fun (m, p, v) ->
      Printf.bprintf b "%h %h %h %h %h %h %h\n" m p.Vec.x p.Vec.y p.Vec.z v.Vec.x
        v.Vec.y v.Vec.z)
    bodies;
  Digest.to_hex (Digest.string (Buffer.contents b))

let barnes_hut kind ~seed sz =
  let cfg = { (Barnes_hut.default_config ~nbodies:sz.bh_bodies) with seed } in
  dsm_run kind ~seed ~side:sz.bh_side (fun ~prof:_ dsm ->
      let app = Barnes_hut.setup dsm cfg in
      {
        fiber = Barnes_hut.fiber app;
        finish =
          (fun () ~simulate_s:_ ->
            let final = Barnes_hut.final_bodies app in
            let mass a = Array.fold_left (fun s (m, _, _) -> s +. m) 0.0 a in
            let finite (m, p, v) =
              List.for_all Float.is_finite
                [ m; p.Vec.x; p.Vec.y; p.Vec.z; v.Vec.x; v.Vec.y; v.Vec.z ]
            in
            ( [ ("bodies", Json.String (bodies_digest final)) ],
              [
                ( "mass_conserved",
                  Float.abs (mass final -. mass (Barnes_hut.generate cfg)) <= 1e-9 );
                ("bodies_finite", Array.for_all finite final);
              ],
              [] ));
      })

(* Matmul recorded to a diva-event-trace file through Streaming.file_sink,
   then folded offline by Streaming.analyze_file: the path of
   [divasim matmul --events] followed by [divasim analyze --offline]. The
   trace is written under the working directory and removed afterwards. *)
let trace_dir = ".benchmark-tmp"

let count_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Bytes.create 65536 and n = ref 0 in
      let rec go () =
        let k = input ic buf 0 65536 in
        if k > 0 then begin
          for i = 0 to k - 1 do
            if Bytes.unsafe_get buf i = '\n' then incr n
          done;
          go ()
        end
      in
      go ();
      !n)

let postmortem kind ~seed sz =
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let path = Filename.concat trace_dir (Printf.sprintf "pm-%d.jsonl" (Unix.getpid ())) in
  let dims = [| sz.pm_side; sz.pm_side |] in
  let m = Diva_simnet.Machine.gcel in
  let overheads =
    { Diva_obs.Analysis.send_overhead = m.Diva_simnet.Machine.send_overhead;
      recv_overhead = m.Diva_simnet.Machine.recv_overhead;
      local_overhead = m.Diva_simnet.Machine.local_overhead }
  in
  let header =
    Streaming.make_header
      ~params:[ ("block", Json.Int sz.pm_block) ]
      ~app:"matmul" ~dims ~strategy:(Dsm.strategy_name fourary) ~seed ~overheads ()
  in
  let oc = open_out_bin path in
  let cleanup () =
    close_out_noerr oc;
    (try Sys.remove path with Sys_error _ -> ());
    try Sys.rmdir trace_dir with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let sink = Streaming.file_sink oc header in
      dsm_run kind ~seed ~side:sz.pm_side ~trace:sink (fun ~prof dsm ->
          let mm = matmul_app ~block:sz.pm_block dsm in
          {
            mm with
            finish =
              (fun () ->
                close_out oc;
                let t0 = clock () in
                let analyze () = Streaming.analyze_file path in
                let result =
                  match prof with
                  | Some p -> Prof.with_sub p Prof.Analysis analyze
                  | None -> analyze ()
                in
                let analyze_s = clock () -. t0 in
                fun ~simulate_s ->
                  let _, mm_checks, _ = mm.finish () ~simulate_s in
                  match result with
                  | Error e -> failwith ("analyze_file: " ^ e)
                  | Ok (h, summary, peak) ->
                      let lines = float_of_int (max 1 (count_lines path - 1)) in
                      let bytes = float_of_int (Unix.stat path).Unix.st_size in
                      let txns = summary.Diva_obs.Analysis.sm_num_txns in
                      ( [
                          ("trace_lines", Json.Int (int_of_float lines));
                          ("analysis_txns", Json.Int txns);
                          ("analysis_msgs", Json.Int summary.Diva_obs.Analysis.sm_num_msgs);
                          ("analysis_end_us", Json.Float summary.Diva_obs.Analysis.sm_end_us);
                          ("analysis_peak_msgs", Json.Int peak);
                        ],
                        mm_checks
                        @ [
                            ("summary_has_txns", txns > 0);
                            ( "header_matches_run",
                              h.Streaming.h_app = "matmul"
                              && h.Streaming.h_dims = dims
                              && h.Streaming.h_seed = seed
                              && h.Streaming.h_strategy = Dsm.strategy_name fourary );
                          ],
                        (* Recording happens inside Network.run: the record
                           call is this workload's simulate step. *)
                        [
                          ("obs.record_ns_per_line", simulate_s *. 1e9 /. lines);
                          ("obs.analyze_ns_per_line", analyze_s *. 1e9 /. lines);
                          ("obs.bytes_per_line", bytes /. lines);
                          ("obs.peak_msgs", float_of_int peak);
                        ] ));
          }))

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

let serve_spec ~seed ~horizon_us sz =
  let procs = sz.sv_side * sz.sv_side in
  Sspec.make ~keys:sz.sv_keys ~value_size:64 ~rate:sz.sv_rate ~horizon_us
    ~arrival:Diva_service.Arrival.Poisson ~read_ratio:0.8
    ~phases:(Sspec.scenario_phases Sspec.Steady ~keys:sz.sv_keys ~procs ~zipf:0.9)
    ~seed ()

let serve kind ~seed sz =
  let dims = [| sz.sv_side; sz.sv_side |] in
  if kind = Setup then begin
    (* The same public call with the smallest horizon the spec accepts:
       no request arrives, so this is network, DSM and key setup. *)
    let spec = serve_spec ~seed ~horizon_us:Float.min_float sz in
    let t0 = clock () in
    ignore (Engine.run ~dims ~strategy:fourary spec);
    { sim = []; checks = []; host = [ ("setup_s", clock () -. t0) ] }
  end
  else begin
    let spec = serve_spec ~seed ~horizon_us:sz.sv_horizon_us sz in
    let prof = if kind = Traced then Some (Prof.create ()) else None in
    (* Engine.run builds its network internally; the flight recorder's
       periodic health snapshot is the public window onto Sim.pending. No
       event ring is wired to the trace sink, so nothing is traced. *)
    let flight =
      if kind = Traced then
        Some
          (Flight.create ~snapshots:1_000_000 ~dump_on_watchdog:false
             ~path:(Filename.concat trace_dir "serve-flight.json") ())
      else None
    in
    let obs = { Runner.null_obs with Runner.obs_prof = prof; obs_flight = flight } in
    let events = ref 0 in
    let on_net net = events := Sim.events_executed (Network.sim net) in
    let w0 = minor_words () in
    let t0 = clock () in
    let r = Engine.run ~obs ~on_net ~dims ~strategy:fourary spec in
    let t1 = clock () in
    let words = minor_words () -. w0 in
    let m = r.Engine.measurements and slo = r.Engine.slo in
    let p999 = Option.value ~default:slo.Slo.max_us slo.Slo.p999_us in
    let profiled =
      match (prof, flight) with
      | Some p, Some fl ->
          let d = depths () in
          List.iter (fun s -> push_depth d s.Flight.sn_pending) (Flight.snapshots fl);
          depth_fields d @ prof_shares p
      | _ -> []
    in
    {
      sim =
        network_outputs m ~events:!events ~latency_us:slo.Slo.mean_us
        @ [
            ("arrivals", Json.Int r.Engine.arrivals);
            ("completions", Json.Int r.Engine.completions);
            ("in_horizon", Json.Int r.Engine.in_horizon);
            ("p50_us", Json.Float slo.Slo.p50_us);
            ("p99_us", Json.Float slo.Slo.p99_us);
            ("p999_us", Json.Float p999);
            ("queue_hwm", Json.Int (Engine.max_queue_hwm r));
          ];
      checks = [ ("completions_equal_arrivals", r.Engine.completions = r.Engine.arrivals) ];
      host =
        [ ("wall_s", t1 -. t0) ]
        @ network_counters m ~events:!events ~dsm_ops:slo.Slo.n ~sim_s:(t1 -. t0)
            ~words
        @ [
            ("service.requests", float_of_int r.Engine.arrivals);
            ("service.queue_hwm", float_of_int (Engine.max_queue_hwm r));
            ("service.p50_ms", slo.Slo.p50_us /. 1e3);
            ("service.p99_ms", slo.Slo.p99_us /. 1e3);
            ("service.p999_ms", p999 /. 1e3);
            ("service.goodput_ratio", ratio r.Engine.in_horizon r.Engine.arrivals);
          ]
        @ profiled;
    }
  end

(* ------------------------------------------------------------------ *)
(* traffic                                                              *)
(* ------------------------------------------------------------------ *)

let traffic kind ~seed sz =
  let go ?telemetry ~domains horizon =
    Traffic.run ~domains ?telemetry ~seed ~size:64 ~rows:sz.tr_side ~cols:sz.tr_side
      ~rate:sz.tr_rate ~horizon ~pattern:Traffic.Uniform ()
  in
  match kind with
  | Setup ->
      let t0 = clock () in
      ignore (go ~domains:(traffic_domains ()) Float.min_float);
      { sim = []; checks = []; host = [ ("setup_s", clock () -. t0) ] }
  | Run | Traced | Serial ->
      let domains = if kind = Serial then 1 else traffic_domains () in
      let prof = if kind = Traced then Some (Prof.create ()) else None in
      let telemetry =
        if kind = Traced then Some (Par_engine.telemetry_create ()) else None
      in
      Option.iter Prof.arm prof;
      let w0 = minor_words () in
      let t0 = clock () in
      let r = go ?telemetry ~domains sz.tr_horizon_us in
      let t1 = clock () in
      let words = minor_words () -. w0 in
      let ev = float_of_int r.Traffic.r_events in
      let par =
        match telemetry with
        | None -> []
        | Some tl ->
            let j = Par_engine.telemetry_json tl in
            let f k = Option.value ~default:0.0 (Option.bind (Json.member k j) Json.to_float) in
            [
              ("par.stall_frac", f "stall_frac");
              ("par.shard_imbalance", f "shard_imbalance");
              ("par.windows", f "windows");
            ]
      in
      {
        sim =
          [
            ("events", Json.Int r.Traffic.r_events);
            ("latency_us", Json.Float r.Traffic.r_lat_mean_us);
            ("latency_max_us", Json.Float r.Traffic.r_lat_max_us);
            ("startups", Json.Int r.Traffic.r_injected);
            ("delivered", Json.Int r.Traffic.r_delivered);
            ("hops", Json.Int r.Traffic.r_hops);
          ];
        checks = [ ("delivered_equal_injected", r.Traffic.r_delivered = r.Traffic.r_injected) ];
        host =
          [
            ("wall_s", t1 -. t0);
            ("sim.events", ev);
            ("sim.events_per_s", ev /. (t1 -. t0));
            ("sim.alloc_words_per_event", words /. ev);
            ("network.msgs_per_event", ratio r.Traffic.r_injected r.Traffic.r_events);
            ("network.hops_per_msg", ratio r.Traffic.r_hops r.Traffic.r_injected);
          ]
          @ par
          @ (match prof with Some p -> prof_shares p | None -> []);
      }

let run w kind ~seed sz =
  let r =
    match w with
    | Matmul -> matmul kind ~seed sz
    | Barnes_hut -> barnes_hut kind ~seed sz
    | Serve -> serve kind ~seed sz
    | Traffic -> traffic kind ~seed sz
    | Postmortem -> postmortem kind ~seed sz
  in
  { r with host = r.host @ [ ("rss_peak_mb", rss_peak_mb ()) ] }
