(** SLO-style tail latency summary.

    All percentiles are exact nearest-rank order statistics on one sorted
    copy of the sample set ({!Diva_util.Stats.sorted_percentile}) — never
    interpolation. The p999 additionally carries a minimum-sample guard:
    with fewer than 1000 observations — the smallest sample set in which
    the 99.9th-percentile rank is distinct from the maximum — the 99.9th
    rank degenerates to the sample maximum, so it is reported as [None]
    instead of a number that looks more precise than it is. *)

type t = {
  n : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float option;  (** [None] when [n < 1000] *)
  max_us : float;
}

val of_samples : float array -> t
(** The input is not modified. An empty sample set yields zeros. *)

val to_fields : t -> (string * Diva_obs.Json.t) list
(** Machine-readable fields; [lat_p999_us] is omitted (not null) when the
    guard withholds it, so downstream gates only ever see numbers. *)

val render : t -> string
