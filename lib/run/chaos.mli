(** Chaos harness: synthetic workloads under generated fault schedules,
    every run validated by the coherence {!Diva_workload.Oracle}.

    One chaos campaign sweeps [schedules] seed-generated fault schedules
    ({!Diva_faults.Schedule.generate}, seeds [seed], [seed+1], ...) across
    a configurable list of data-management strategies, any selection
    from the {!Diva_core.Registry} (divasim's [chaos] subcommand defaults
    to every registered contender). Each (schedule x strategy) run is a
    {!Run_spec.Workload} cell with that fault schedule, run by
    {!Run_spec.campaign} with an oracle attached; the recorded history is
    checked for per-variable linearizability, and — when
    [verify_determinism] is set — the run is repeated and every
    measurement, fault counter and the oracle's op count and verdict
    compared, proving that schedule + seed fully determine the execution. *)

type config = {
  dims : int array;  (** mesh side lengths *)
  schedules : int;  (** number of generated fault schedules (>= 1) *)
  seed : int;  (** base seed; schedule [i] uses [seed + i] *)
  ops : int;  (** data operations per processor per run *)
  num_vars : int;  (** shared key space size *)
  lock_every : int;  (** every n-th op runs under the key's lock (0 = never) *)
  read_ratio : float;  (** probability that an op is a read *)
  verify_determinism : bool;  (** re-run each case and compare *)
  strategies : (string * Diva_core.Dsm.strategy) list;
      (** contenders swept by the campaign (non-empty) *)
}

(** Result of one (schedule, strategy) run. *)
type outcome = {
  index : int;  (** schedule index within the campaign *)
  schedule : Diva_faults.Schedule.t;
  strategy : string;
  time : float;  (** simulated end-to-end time, microseconds *)
  ops_checked : int;  (** operations recorded by the oracle *)
  lost : int;  (** messages lost to injected faults *)
  retransmits : int;
  reissues : int;  (** DSM watchdog firings *)
  oracle_error : string option;  (** [None] = history linearizable *)
  deterministic : bool option;  (** [None] when verification was off *)
}

val run :
  ?progress:(string -> unit) ->
  ?domains:int ->
  ?flight:Diva_obs.Flight.t ->
  config ->
  outcome list
(** Execute the campaign; [progress] receives one human-readable line per
    run, in campaign order, once the whole campaign has finished (so lines
    from runs on different domains never interleave). The (schedule x
    strategy) runs execute on up to [domains] OCaml domains; the outcome
    list (and any manifest derived from it) is identical for every
    [domains] value — only wall-clock changes. Raises [Invalid_argument]
    on a non-positive [schedules] count, an empty strategy list or a
    workload the run rejects.

    With [flight], every run records into the given flight recorder
    (ring-only — no full trace is buffered) and the first oracle
    violation dumps it; create campaign recorders with
    [~dump_on_watchdog:false], since watchdog trips are routine under
    injected faults. A shared recorder is not domain-safe, so [flight]
    forces serial evaluation regardless of [domains]. *)

val passed : outcome list -> bool
(** No oracle violation and no determinism failure in any run. *)

val manifest : config -> outcome list -> Diva_obs.Json.t
(** Machine-readable campaign report (format ["diva-chaos"], version 2):
    the configuration, every run's counters and verdicts, and the full
    fault schedules for replay. *)
