(** Runtime fault injector: answers the simulator's "what fails right
    now?" queries against a {!Schedule}, and accumulates the fault
    counters that feed the run report.

    One value is installed per network (see
    [Diva_simnet.Network.set_faults]); all queries are pure functions of
    (schedule, simulated time) except {!draw_drop}, which consumes the
    schedule-seeded PRNG stream — in a deterministic simulation the draws
    happen in a fixed order, so the same schedule and run seed always
    inject the same faults. *)

type t

val create : Schedule.t -> t
(** Raises [Invalid_argument] if the schedule fails {!Schedule.validate}. *)

val active : t -> bool
(** [false] for an empty schedule: installing one must change nothing. *)

val rto : t -> float
(** Base retransmission timeout of the reliable envelope, microseconds.
    Attempt [n] waits [rto * 2^min(n, 6)]. *)

val patience : t -> float
(** DSM watchdog delay before a blocked transaction re-issues its
    unacknowledged messages. *)

val ack_size : int
(** Wire size of an envelope acknowledgement, bytes. *)

(** {2 Fault queries} *)

val link_factor : t -> link:int -> now:float -> float
(** Slowdown multiplier (>= 1) for a transfer entering [link] at [now];
    overlapping windows multiply. *)

val link_down : t -> link:int -> now:float -> bool
(** Is the link inside an outage window at [now]? *)

val draw_drop : t -> now:float -> bool
(** Decide probabilistic loss for one physical transmission starting at
    [now]. Consumes one PRNG draw iff a drop window with positive
    probability is active (overlapping windows combine independently). *)

val defer : t -> node:int -> float -> float
(** Earliest time at or after the argument at which the node's CPU may
    start work: pushes times inside pause/crash windows to the window
    end. *)

val crashed : t -> node:int -> now:float -> bool
(** Is the node inside a crash-stop window at [now]? Arriving messages
    are lost. *)

(** {2 Counters}

    Bumped by the network envelope and the DSM watchdog; reported per
    run. *)

val count_lost : t -> Diva_obs.Trace.loss_reason -> unit
val count_retransmit : t -> unit
val count_ack : t -> unit
val count_enveloped : t -> unit
val count_dsm_reissue : t -> unit

val set_on_dsm_reissue : t -> (unit -> unit) -> unit
(** Observe-only callback invoked on every {!count_dsm_reissue} — i.e. on
    each DSM watchdog trip. The flight recorder uses it to dump on the
    first trip; the callback must not touch simulation state. *)

val lost_random : t -> int
val lost_link_down : t -> int
val lost_crashed : t -> int
val lost_total : t -> int
val retransmits : t -> int
val dsm_reissues : t -> int

val report_fields : t -> (string * Diva_obs.Json.t) list
(** The run report's [faults] section: the schedule summary and every
    counter. *)
