(** Open-loop service engine.

    Arrivals are generated as simulator events on the {!Diva_simnet.Sim}
    clock, independent of service progress: each arrival enqueues a
    request at its client's entry node and wakes the node's server fiber
    if idle. One server fiber per node drains its queue through the DSM
    (reads and writes under the chosen strategy) and records the
    arrival-to-completion latency of every request. Because the arrival
    stream never waits for the servers, per-node queues grow without
    bound past saturation — the makespan then exceeds the arrival
    horizon, and the goodput (completions {e within} the horizon) falls
    away from the offered load.

    Runs are deterministic: a spec and seed fix the arrival timestamps,
    client-to-node mapping, key draws and the simulation itself, so a
    re-run is bit-identical. *)

type result = {
  measurements : Diva_harness.Runner.measurements;
  slo : Slo.t;
  arrivals : int;  (** requests generated within the horizon *)
  completions : int;  (** requests served in total (eventually all) *)
  in_horizon : int;  (** requests completed within the horizon *)
  offered_per_s : float;  (** arrivals per simulated second of horizon *)
  goodput_per_s : float;  (** in-horizon completions per simulated second *)
  queue_hwm : int array;  (** per-node queue depth high-water marks *)
  makespan_us : float;  (** when the last request completed *)
}

val run :
  ?obs:Diva_harness.Runner.obs ->
  ?on_net:(Diva_simnet.Network.t -> unit) ->
  ?oracle:Diva_workload.Oracle.t ->
  dims:int array ->
  strategy:Diva_core.Dsm.strategy ->
  Spec.t ->
  result
(** Raises [Invalid_argument] when {!Spec.validate} fails. Composes with
    the full observability stack ([obs]): tracing, metrics, fault
    schedules. Runs on the shared load driver
    ({!Diva_workload.Driver}): with [oracle], every served read and write
    is recorded against the coherence {!Diva_workload.Oracle}. *)

val max_queue_hwm : result -> int
val render : result -> string
