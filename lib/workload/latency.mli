(** Latency summary of one load run, the one every load source reports.

    A sample is one data operation's latency in simulated microseconds:
    for the closed loop and replay, the time its fiber was blocked in the
    DSM call (0 for cache hits, which only charge deferred CPU time); for
    the open-loop service, arrival to completion. All percentiles are
    exact nearest-rank order statistics on one sorted copy of the samples
    ({!Diva_util.Stats.sorted_percentile}), never interpolation. The p999
    carries a minimum-sample guard: with fewer than 1000 observations,
    the smallest set in which the 99.9th rank is distinct from the
    maximum, it is [None] instead of a number that looks more precise
    than it is. *)

type t = {
  n : int;  (** samples *)
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float option;  (** [None] when [n < 1000] *)
  max_us : float;
}

val of_samples : float array -> t
(** The input is not modified. An empty sample set yields zeros. *)

val ops_per_sec : duration_us:float -> t -> float
(** Samples per simulated {e second} of a run lasting [duration_us]
    (0 for an empty run). *)

val render_ops : duration_us:float -> t -> string
(** The workload block of a run report: operations, throughput and
    p50/p95/p99. *)

val request_fields : t -> (string * Diva_obs.Json.t) list
(** The service's machine-readable fields; [lat_p999_us] is omitted (not
    null) when the guard withholds it, so downstream gates only ever see
    numbers. *)

val render_requests : t -> string
(** The service block of a run report: requests and p50/p99/p999. *)
