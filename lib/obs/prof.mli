(** Host-side self-profiler: where does the {e simulator's} wall time,
    allocation and heap go?

    Everything else in [Diva_obs] watches the simulated system; this module
    watches the process simulating it. Three independent mechanisms, all
    observe-only (an armed profiler never schedules events, draws random
    numbers or touches simulation state, so a profiled run is byte-identical
    to an unprofiled one):

    - {b Subsystem sampling.} Instrumented layers publish "what am I
      running right now" with a one-word store ({!set_sub}); a POSIX
      interval timer ([ITIMER_PROF], CPU time) delivers a signal every few
      milliseconds whose handler increments one integer per subsystem. The
      time split is statistical — sample share approximates CPU share —
      and the steady-state cost is one store per event plus one signal per
      sampling period, far below the 3% budget the bench gate enforces.

    - {b Window series.} {!sample} is driven on simulated-clock boundaries
      (see [Diva_simnet.Network.attach_prof]) and appends one row of host
      counters per window: wall clock, events executed, events/sec over
      the window, GC words and collections, heap size. The heap high-water
      mark is folded over the same rows.

    - {b Region timers.} {!region} wraps the coarse, non-hot phases
      (simulate, analysis fold, artifact writing) in exact wall-clock
      timers.

    The result serialises as a versioned [prof.json] ({!to_json}, schema
    ["diva-prof/1"]) and renders back as a report ({!report}); the window
    series also exports as Perfetto counter tracks (see
    {!Chrome_trace.write_file}). *)

type t

(** The instrumented subsystems. [Host] is everything outside the event
    loop (setup, artifact writing); [Event_loop] is queue pop / clock
    bookkeeping / advance hooks; [Dispatch] is event bodies that reach no
    deeper instrumented layer (timers, link bookkeeping); [Protocol] is the
    network message envelope/handler layer; [Strategy] is a
    data-management strategy's protocol handler; [Analysis] is the
    streaming analysis fold and event-trace encoding; [App] is application
    fiber code, from where a fiber resumes to where it next suspends or
    ends, whichever layer resumed it. *)
type subsystem =
  | Host
  | Event_loop
  | Dispatch
  | Protocol
  | Strategy
  | Analysis
  | App

val create : ?sample_period_s:float -> unit -> t
(** [sample_period_s] (default 0.01) is the CPU-time period of the
    subsystem sampler. Periods much below 10ms make OCaml's signal
    delivery itself the dominant cost and blow the 3% overhead budget the
    bench gate enforces; 10ms keeps the sampler in the noise while still
    collecting hundreds of samples on any run long enough to be worth
    profiling. Test-only: a test sets a shorter period to collect enough
    samples from a test-sized burn of CPU time. *)

val window_us : float
(** 1000: the simulated-time width of one series row. *)

(** {2 Hot-path attribution} *)

val set_sub : t -> subsystem -> unit
(** One word store; safe (and cheap) on the per-event path. *)

val cur_sub : t -> subsystem

val with_sub : t -> subsystem -> (unit -> 'a) -> 'a
(** Set, run, restore the previous subsystem. Not exception-safe by design
    — after an uncaught exception the run is over and attribution moot. *)

(** {2 Arming the sampler} *)

val arm : t -> unit
(** Install the [SIGPROF] handler and start the interval timer. At most
    one profiler is armed per process; arming a second is a no-op (its
    subsystem histogram just stays empty). The window series and region
    timers work without arming. *)

val disarm : t -> unit
(** Stop the timer and restore the previous handler. Idempotent; called
    automatically by {!to_json}. *)

(** {2 Window series} *)

val sample : t -> sim_us:float -> events:int -> unit
(** Append one series row at simulated time [sim_us] with [events] total
    events executed so far. Reads the wall clock and GC counters only;
    the expensive [Gc.quick_stat] (heap size, major collections) is
    refreshed every 16th row and carried forward in between, keeping a
    row to ~50ns. Also drives the ticker, if one is set. *)

val set_ticker : t -> (string -> unit) -> unit
(** Install a live progress callback: at most every ~0.2 wall seconds,
    {!sample} formats a one-line health summary (sim time, events,
    events/sec, heap) and passes it to the callback. The caller decides
    where it goes (divasim writes ["\r<line>"] to stderr). *)

(** {2 Region timers} *)

val region : t -> string -> (unit -> 'a) -> 'a
(** Exact wall-clock timing of one named coarse phase; nested or repeated
    regions of the same name accumulate. *)

(** {2 Attachments} *)

val set_par : t -> Json.t -> unit
(** Attach a parallel-engine telemetry report (see
    [Diva_simnet.Par_engine.telemetry_json]); it is embedded as the
    ["par"] section of {!to_json}. *)

val register_gauges : t -> Metrics.t -> unit
(** Register the host-side gauges on a metrics registry:
    [host-events-per-sec] and [host-heap-words] (latest window row), and
    [host-minor-words] (allocated this run). Names deliberately contain
    ['-'] — {!Metrics.to_prometheus} sanitizes them. *)

(** {2 Output} *)

val to_json : t -> Json.t
(** Disarms the sampler, stamps the total wall time and final GC counters,
    and renders the ["diva-prof/1"] document. *)

val report : Json.t -> (string, string) result
(** Render a parsed ["diva-prof/1"] document as a human-readable report
    (the [divasim profile] command). *)

val series_rows : Json.t -> (float * float * float) list
(** [(sim_us, events_per_sec, heap_words)] per window row of a parsed
    ["diva-prof/1"] document — the data behind the Perfetto counter
    tracks. *)
