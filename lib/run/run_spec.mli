(** One simulation run as a value: the application and its parameters,
    the mesh, the strategy, the seed and the fault schedule. Every divasim
    subcommand that simulates a single run parses its flags into a {!t}
    and hands it to {!execute}. The run manifest, the event-trace header
    and the analysis metadata all describe the run by its {!name} and
    {!params}. The per-app engines are not forked: a run dispatches to
    {!Diva_harness.Runner}, {!Diva_workload.Generator},
    {!Diva_workload.Replay} or {!Diva_service.Engine}. *)

type app =
  | Matmul of { block : int; compute : bool }
  | Bitonic of { keys : int }
  | Barnes_hut of Diva_apps.Barnes_hut.config
  | Workload of Diva_workload.Spec.t
  | Replay of {
      path : string;
      mode : Diva_workload.Replay.mode;
      trace : Diva_workload.Replay.t;  (** [path], already read *)
    }
  | Serve of {
      spec : Diva_service.Spec.t;
      scenario : Diva_service.Spec.scenario;
    }

type t = {
  app : app;
  dims : int array;  (** a replay's must be its trace's *)
  strategy : Diva_harness.Runner.strategy_choice;
  seed : int;  (** overrides the seed inside a workload or service spec *)
  faults : Diva_faults.Schedule.t;
}

val validate : t -> (unit, string) result
(** Every rule a run must meet before it starts: the mesh its app needs,
    a DSM strategy where there is no hand-optimized baseline, and the
    workload and service specs' own checks. *)

val name : t -> string
val params : t -> (string * Diva_obs.Json.t) list

(** Where the artifacts go and what the report shows. *)
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
  phases : bool;  (** the per-phase breakdown, for Barnes-Hut *)
}

val no_outputs : outputs

(** A live analysis: the streaming analyzer rides the run as one more
    trace sink and its report replaces the run report. *)
type analysis = {
  top : int;
  windows : int;
  json : string option;
  snapshots : bool;
}

val execute : ?analyze:analysis -> outputs -> t -> (unit, string) result
(** Validate [t] and check every output directory, both before anything
    is simulated; then run it into the sinks the outputs ask for (event
    file, analyzer, in-memory list for the Chrome trace, flight
    recorder), print the report and write the artifacts. [Error] is why
    the run was rejected or an artifact could not be written. *)

val preflight : string option list -> (unit, string) result
(** [Error] naming the first path whose directory does not exist. *)

val analysis_report :
  ?offline:string * int ->
  ?events:string * int ->
  analysis ->
  Diva_obs.Streaming.header ->
  Diva_obs.Analysis.summary ->
  unit
(** Print an analyze report, live or from a trace file ([offline]: its
    path and peak residency): summary, recorded [events] (path, count),
    per-window heatmaps and the analysis document, all described by the
    run's header. Raises [Sys_error] when the document cannot be
    written. *)

val print_measurements : Diva_harness.Runner.measurements -> unit

val with_flight : Diva_obs.Flight.t option -> (unit -> 'a) -> 'a
(** Run [f]; if it raises, dump the recorder and re-raise. *)
