(** Benchmark regression gate: compare a current BENCH_diva.json-style
    document against a committed baseline.

    Every numeric leaf is compared under a per-metric {e relative}
    tolerance with a direction — more time/congestion/startups is a
    regression, fewer cache hits is a regression, improvements beyond the
    tolerance are reported but never fail. Structural drift fails both
    ways: a metric present only in the baseline ([MISSING]) or only in the
    current run ([EXTRA] — regenerate the committed baseline in the same
    change). The simulator is deterministic, so an unchanged tree
    reproduces the baseline exactly; tolerances only absorb intentional
    small shifts between PRs. *)

type status = Pass | Regressed | Improved | Missing | Extra | Mismatch

type verdict = { v_path : string; v_status : status; v_detail : string }

val status_name : status -> string

val is_failure : status -> bool
(** [Regressed], [Missing], [Extra] and [Mismatch] fail the gate. *)

val default_tolerances : (string * float) list
(** Per-metric relative tolerances (leaf key -> fraction); metrics not
    listed use 10%. *)

val compare_docs :
  ?tolerances:(string * float) list ->
  baseline:Diva_obs.Json.t ->
  current:Diva_obs.Json.t ->
  unit ->
  verdict list
(** One verdict per leaf (document order), plus one per missing/extra
    key. *)

val failures : verdict list -> verdict list

val load : string -> (Diva_obs.Json.t, string) result
(** Read and parse a committed baseline; [Error] carries a one-line
    message (unreadable file or malformed JSON). *)

val render : verdict list -> string
(** Non-pass verdicts, one per line, plus a summary count line. *)
