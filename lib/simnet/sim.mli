(** Discrete-event simulation core: a virtual clock (in microseconds) and an
    event queue. Events scheduled for the same instant execute in FIFO
    order, so runs are deterministic. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time in microseconds. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t at f] runs [f] at simulated time [at]. Raises
    [Invalid_argument] if [at] is in the past or not finite. *)

val schedule_now : t -> (unit -> unit) -> unit

val schedule_call : t -> float -> ('a -> unit) -> 'a -> unit
(** [schedule_call t at f x] runs [f x] at simulated time [at]. Equivalent
    to [schedule t at (fun () -> f x)] but avoids allocating a closure when
    [f] is a statically-known function: hot schedule sites pass one shared
    function plus the value it acts on instead of a fresh environment. The
    queue keeps [f] and [x] in columns of their own, so scheduling
    allocates only the boxed time. *)

val run : t -> unit
(** Execute events until the queue is empty. *)

val add_advance_hook : t -> (float -> float -> unit) -> unit
(** [add_advance_hook t h] makes {!run} call [h old_clock new_clock] just
    before the clock jumps forward (strictly), i.e. between the events of
    two distinct instants, in addition to any hooks already installed. A
    hook must only observe state — it must not schedule events or mutate
    the simulation — so that an instrumented run is indistinguishable from
    a bare one; their relative order is therefore unspecified. Lets the
    metrics sampler, the profiler's window series and the flight
    recorder's health snapshots share the slot. *)

val set_prof : t -> Diva_obs.Prof.t -> unit
(** Make {!run} store one subsystem tag per queue/dispatch transition, so
    the statistical sampler can attribute CPU time; control flow is
    unchanged. {!run} is one loop: without a profiler each event pays
    only the test of an immutable local. *)

val events_executed : t -> int

val pending : t -> int
(** Number of events still queued. *)
