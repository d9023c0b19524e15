(** Per-operation latency and throughput report of one workload run.

    Latency of an operation is the simulated time its fiber was blocked in
    the DSM call (0 for cache hits, which only charge deferred CPU time);
    percentiles are nearest-rank ({!Diva_util.Stats.percentile}).
    Throughput is completed operations per simulated second. *)

type t = {
  ops : int;  (** number of operations sampled *)
  duration_us : float;  (** end-to-end simulated run time *)
  mean : float;  (** microseconds, over all sampled ops *)
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val of_samples : duration_us:float -> float array -> t

val ops_per_sec : t -> float
(** Operations per simulated {e second} (0 for an empty run). *)

val quad : t -> float * float * float * float
(** (p50, p95, p99, max) — the shape {!Diva_harness.Report.workload_table}
    takes. *)

val render : t -> string
(** Multi-line human-readable block, aligned with the measurement printout
    of the divasim CLI. *)
