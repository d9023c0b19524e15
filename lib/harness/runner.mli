(** Runs one application under one data-management strategy on one mesh and
    collects the measurements the paper reports: congestion (messages and
    bytes), execution/communication time, total communication load, startup
    counts and computation times. *)

type measurements = {
  time : float;  (** end-to-end simulated time, microseconds *)
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
      (** simulation events executed by the whole run (Barnes-Hut phases
          included), deterministic like the other counts *)
}

type strategy_choice =
  | Strategy of Diva_core.Dsm.strategy
  | Hand_optimized

val name : strategy_choice -> string

(** Observability configuration of one run: a trace sink installed on the
    network before the application starts, and an optional metrics registry
    sampled every [obs_sample_interval] simulated microseconds (plus once
    at the end of the run). The default {!null_obs} records nothing and
    costs nothing; recording never changes the simulated execution. *)
type obs = {
  obs_trace : Diva_obs.Trace.sink;
  obs_metrics : Diva_obs.Metrics.t option;
  obs_sample_interval : float;
  obs_faults : Diva_faults.Schedule.t;
      (** fault schedule installed before the run; {!Diva_faults.Schedule.empty}
          (the default) injects nothing and leaves the run bit-identical *)
  obs_prof : Diva_obs.Prof.t option;
      (** self-profiler: armed and attached by {!install_obs}, its
          "simulate" region timed around the run by {!finish} *)
  obs_flight : Diva_obs.Flight.t option;
      (** flight recorder: health snapshots attached by {!install_obs},
          which also arms dump-on-watchdog-trip when the recorder's policy
          asks for it. The event ring must already wrap [obs_trace]
          ({!Diva_obs.Flight.wrap}) — installing the sink is the one thing
          {!install_obs} cannot retrofit. *)
}

val null_obs : obs

val fault_fields : Diva_simnet.Network.t -> (string * Diva_obs.Json.t) list
(** The run report's [faults] section: empty without an installed fault
    schedule, otherwise one ["faults"] object with the schedule summary,
    loss/retransmission counters and DSM re-issue count. *)

val measurement_fields : measurements -> (string * Diva_obs.Json.t) list
(** All measurement fields as JSON key/values (run manifests, BENCH files). *)

(** {2 Building blocks}

    The pieces every runner is made of, exposed so that other drivers (the
    workload engine's generator and trace replayer) measure runs exactly
    the way the paper's runners do. *)

val install_obs : Diva_simnet.Network.t -> obs -> unit
(** Install the trace sink and metrics sampler on a freshly created
    network, before any protocol layer or application state exists. *)

val finish :
  ?on_net:(Diva_simnet.Network.t -> unit) -> obs:obs -> Diva_simnet.Network.t -> unit
(** Run the simulation to completion, take the final metrics sample, then
    invoke [on_net]. *)

val collect :
  Diva_simnet.Network.t -> Diva_core.Dsm.t option -> measurements
(** Snapshot the paper's measurements of a completed run. *)

val run_matmul :
  ?seed:int -> ?obs:obs -> ?on_net:(Diva_simnet.Network.t -> unit) ->
  dims:int array -> block:int -> ?compute:bool -> strategy_choice ->
  measurements
(** [dims] must be a square 2-D mesh. The paper measures matmul
    {e communication} time: [compute] defaults to false so that only read,
    write and synchronization calls remain. *)

val run_bitonic :
  ?seed:int -> ?obs:obs -> ?on_net:(Diva_simnet.Network.t -> unit) ->
  dims:int array -> keys:int -> ?compute:bool -> strategy_choice ->
  measurements
(** Bitonic on a mesh of any dimension, measured with its (small)
    computation included. *)

(** Aggregated Barnes-Hut measurements over the measured steps, total or
    restricted to one phase. *)
type bh_result = {
  bh_total : measurements;
  bh_phase : Diva_apps.Barnes_hut.phase -> measurements;
}

val run_barnes_hut :
  ?seed:int -> ?obs:obs -> ?on_net:(Diva_simnet.Network.t -> unit) ->
  dims:int array -> cfg:Diva_apps.Barnes_hut.config ->
  Diva_core.Dsm.strategy -> bh_result
(** There is no hand-optimized baseline for Barnes-Hut (the paper cannot
    construct one either). Times and congestion cover the measured
    (non-warmup) steps only, as in the paper. Any mesh dimension works,
    an extension beyond the paper exercising the theory's d-dimensional
    setting. *)

(** The [on_net] callback of each runner fires after the simulation
    completes, with the network still available — used e.g. for the
    {!Heatmap} rendering in the CLI. *)
