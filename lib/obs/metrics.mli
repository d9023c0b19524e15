(** Metrics registry: named gauges sampled into a time series.

    A registry holds an ordered set of gauges, callbacks evaluated at
    sampling time (e.g. "links busy right now"). {!sample} appends one
    row — the current value of every gauge — stamped with a simulation
    time. The periodic
    driver lives in {!Diva_simnet.Network.attach_metrics}, which samples on
    simulated-clock boundaries; sampling reads state only, so a metered run
    is bit-identical to an unmetered one. *)

type t

val create : unit -> t

val gauge : t -> string -> (unit -> float) -> unit
(** Register a gauge column; the callback runs at each {!sample}. *)

val sample : t -> ts:float -> unit
(** Append one row at simulated time [ts]. Rows with a timestamp equal to
    the previous row's are skipped (the final end-of-run sample may land on
    a periodic boundary). *)

val num_rows : t -> int

val to_csv : t -> string
(** ["ts_us,<col>,...\n"] header (gauges in registration order) plus one
    line per row, oldest first. *)

val to_json : t -> Json.t
(** [{ "columns": [...], "rows": [[ts, v, ...], ...] }]. *)

val to_prometheus : ?labels:(string * string) list -> t -> string
(** Prometheus text exposition of the {e final} sample: one
    [# TYPE]-annotated [gauge] line pair per series, names prefixed with
    ["diva_"] and sanitized to the Prometheus charset, plus a
    [diva_sample_ts_us] gauge carrying the sample's simulated timestamp.
    Empty string when nothing was sampled.

    Series names containing ['-'] fold to ['_']; when two series collide
    after the fold, later ones get a deterministic numeric suffix so the
    exposition never carries a duplicate metric name. [labels] are
    rendered on every sample line ([name{k="v"} value]) with label values
    escaped per the exposition format (backslash, double quote, newline). *)
