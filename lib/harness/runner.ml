module Network = Diva_simnet.Network
module Link_stats = Diva_simnet.Link_stats
module Sim = Diva_simnet.Sim
module Dsm = Diva_core.Dsm
module Matmul = Diva_apps.Matmul
module Matmul_handopt = Diva_apps.Matmul_handopt
module Bitonic = Diva_apps.Bitonic
module Bitonic_handopt = Diva_apps.Bitonic_handopt
module Barnes_hut = Diva_apps.Barnes_hut

type measurements = {
  time : float;
  congestion_msgs : int;
  congestion_bytes : int;
  total_msgs : int;
  total_bytes : int;
  startups : int;
  max_compute : float;
  dsm_reads : int;
  dsm_read_hits : int;
  evictions : int;
  events : int;
}

type strategy_choice = Strategy of Dsm.strategy | Hand_optimized

let name = function
  | Hand_optimized -> "hand-optimized"
  | Strategy s -> Dsm.strategy_name s

type obs = {
  obs_trace : Diva_obs.Trace.sink;
  obs_metrics : Diva_obs.Metrics.t option;
  obs_sample_interval : float;
  obs_faults : Diva_faults.Schedule.t;
  obs_prof : Diva_obs.Prof.t option;
  obs_flight : Diva_obs.Flight.t option;
}

let null_obs =
  { obs_trace = Diva_obs.Trace.null; obs_metrics = None;
    obs_sample_interval = 1000.0; obs_faults = Diva_faults.Schedule.empty;
    obs_prof = None; obs_flight = None }

let install_obs net obs =
  (* Faults first: the gauges attach_metrics registers depend on whether
     an injector is installed. Empty schedules install nothing. *)
  Network.set_faults net (Diva_faults.Faults.create obs.obs_faults);
  Network.set_trace net obs.obs_trace;
  (match obs.obs_metrics with
  | Some m ->
      Network.attach_metrics net ~interval:obs.obs_sample_interval m;
      (* Host-side gauges ride the same registry when profiling. *)
      (match obs.obs_prof with
      | Some p -> Diva_obs.Prof.register_gauges p m
      | None -> ())
  | None -> ());
  (match obs.obs_prof with
  | Some p -> Network.attach_prof net p
  | None -> ());
  match obs.obs_flight with
  | None -> ()
  | Some fl ->
      (* The event ring was wired when the sink was built (Flight.wrap);
         here we attach the health snapshots and, per recorder policy,
         dump on the first DSM watchdog trip. *)
      Network.attach_flight net fl;
      if Diva_obs.Flight.dump_on_watchdog fl then (
        match Network.faults net with
        | Some f ->
            Diva_faults.Faults.set_on_dsm_reissue f (fun () ->
                Diva_obs.Flight.dump fl ~reason:"dsm watchdog trip")
        | None -> ())

let fault_fields net =
  match Network.faults net with
  | None -> []
  | Some f ->
      [ ("faults", Diva_obs.Json.Obj (Diva_faults.Faults.report_fields f)) ]

let measurement_fields (m : measurements) =
  let open Diva_obs.Json in
  [
    ("time_us", Float m.time);
    ("congestion_msgs", Int m.congestion_msgs);
    ("congestion_bytes", Int m.congestion_bytes);
    ("total_msgs", Int m.total_msgs);
    ("total_bytes", Int m.total_bytes);
    ("startups", Int m.startups);
    ("max_compute_us", Float m.max_compute);
    ("dsm_reads", Int m.dsm_reads);
    ("dsm_read_hits", Int m.dsm_read_hits);
    ("evictions", Int m.evictions);
    ("events", Int m.events);
  ]

let spawn_all net f =
  for p = 0 to Network.num_nodes net - 1 do
    Network.spawn net p (fun () -> f p)
  done

let collect net dsm =
  let st = Network.stats net in
  {
    time = Network.now net;
    congestion_msgs = Link_stats.congestion_msgs st;
    congestion_bytes = Link_stats.congestion_bytes st;
    total_msgs = Link_stats.total_msgs st;
    total_bytes = Link_stats.total_bytes st;
    startups = Network.startups net;
    max_compute = Network.max_compute_time net;
    dsm_reads = (match dsm with Some d -> Dsm.reads d | None -> 0);
    dsm_read_hits = (match dsm with Some d -> Dsm.read_hits d | None -> 0);
    evictions = (match dsm with Some d -> Dsm.evictions d | None -> 0);
    events = Sim.events_executed (Network.sim net);
  }

let finish ?on_net ~obs net =
  (match obs.obs_prof with
  | Some p -> Diva_obs.Prof.region p "simulate" (fun () -> Network.run net)
  | None -> Network.run net);
  (* One final row so the series always covers the full run. *)
  (match obs.obs_metrics with
  | Some m -> Diva_obs.Metrics.sample m ~ts:(Network.now net)
  | None -> ());
  match on_net with Some f -> f net | None -> ()

(* The skeleton every runner shares: a fresh mesh with observability
   installed, one fiber per processor from [setup], run to completion;
   [setup] also returns how to read the result off the finished run. *)
let simulate ~seed ~obs ?on_net ~dims setup =
  let net = Network.create_nd ~seed ~dims () in
  install_obs net obs;
  let fiber, result = setup net in
  spawn_all net fiber;
  finish ?on_net ~obs net;
  result ()

(* An app with a hand-optimized baseline runs on the bare network under
   [Hand_optimized], and on a DSM under the chosen strategy otherwise. *)
let paper_app choice ~hand ~dsm net =
  match choice with
  | Hand_optimized -> (hand net, fun () -> collect net None)
  | Strategy strategy ->
      let d = Dsm.create net ~strategy () in
      (dsm d, fun () -> collect net (Some d))

let run_matmul ?(seed = 17) ?(obs = null_obs) ?on_net ~dims ~block
    ?(compute = false) choice =
  simulate ~seed ~obs ?on_net ~dims
    (paper_app choice
       ~hand:(fun net ->
         Matmul_handopt.fiber
           (Matmul_handopt.setup net { Matmul_handopt.block; compute }))
       ~dsm:(fun d -> Matmul.fiber (Matmul.setup d { Matmul.block; compute })))

let run_bitonic ?(seed = 17) ?(obs = null_obs) ?on_net ~dims ~keys
    ?(compute = true) choice =
  simulate ~seed ~obs ?on_net ~dims
    (paper_app choice
       ~hand:(fun net ->
         Bitonic_handopt.fiber
           (Bitonic_handopt.setup net { Bitonic_handopt.keys; compute }))
       ~dsm:(fun d ->
         Bitonic.fiber (Bitonic.setup d { Bitonic.keys; compute })))

type bh_result = {
  bh_total : measurements;
  bh_phase : Barnes_hut.phase -> measurements;
}

let aggregate_intervals dsm ~startups ~events ivs =
  match ivs with
  | [] ->
      {
        time = 0.0; congestion_msgs = 0; congestion_bytes = 0; total_msgs = 0;
        total_bytes = 0; startups; max_compute = 0.0;
        dsm_reads = Dsm.reads dsm; dsm_read_hits = Dsm.read_hits dsm;
        evictions = Dsm.evictions dsm; events;
      }
  | first :: _ ->
      let time = ref 0.0 in
      let traffic = ref (Link_stats.zero first.Barnes_hut.i_traffic) in
      let compute = Array.make (Array.length first.Barnes_hut.i_compute) 0.0 in
      List.iter
        (fun iv ->
          time := !time +. iv.Barnes_hut.i_time;
          traffic := Link_stats.add !traffic iv.Barnes_hut.i_traffic;
          Array.iteri
            (fun i v -> compute.(i) <- compute.(i) +. v)
            iv.Barnes_hut.i_compute)
        ivs;
      {
        time = !time;
        congestion_msgs = Link_stats.snap_congestion_msgs !traffic;
        congestion_bytes = Link_stats.snap_congestion_bytes !traffic;
        total_msgs = Link_stats.snap_total_msgs !traffic;
        total_bytes = Link_stats.snap_total_bytes !traffic;
        startups;
        max_compute = Array.fold_left Float.max 0.0 compute;
        dsm_reads = Dsm.reads dsm;
        dsm_read_hits = Dsm.read_hits dsm;
        evictions = Dsm.evictions dsm;
        events;
      }

let run_barnes_hut ?(seed = 17) ?(obs = null_obs) ?on_net ~dims ~cfg strategy =
  simulate ~seed ~obs ?on_net ~dims (fun net ->
      let dsm = Dsm.create net ~strategy () in
      let app = Barnes_hut.setup dsm cfg in
      ( Barnes_hut.fiber app,
        fun () ->
          let ivs = Barnes_hut.intervals app in
          let startups = Network.startups net in
          let events = Sim.events_executed (Network.sim net) in
          {
            bh_total = aggregate_intervals dsm ~startups ~events ivs;
            bh_phase =
              (fun ph ->
                aggregate_intervals dsm ~startups ~events
                  (List.filter (fun iv -> iv.Barnes_hut.i_phase = ph) ivs));
          } ))
