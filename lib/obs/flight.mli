(** Crash flight recorder: a bounded ring of the most recent trace events
    plus periodic health snapshots, dumped to a JSON file when something
    goes wrong — an uncaught exception, a DSM watchdog trip, a chaos-oracle
    violation. Every crash leaves a post-mortem artifact.

    Recording is observe-only: the ring buffers events the simulator
    already emits (arming the recorder on an untraced run turns event
    {e construction} on, which is proven not to change the simulation —
    the same property the tracer relies on), snapshots read state, and
    dumping writes a file. A run with the recorder armed is byte-identical
    to one without.

    The dump is first-trigger-wins: after a dump the recorder keeps
    recording but later triggers are ignored, so the artifact describes
    the {e first} failure, not the last symptom. *)

type t

(** One periodic health snapshot (see
    [Diva_simnet.Network.attach_flight]). *)
type snapshot = {
  sn_wall : float;  (** host Unix time of the snapshot *)
  sn_sim_us : float;
  sn_events : int;  (** events executed so far *)
  sn_pending : int;  (** events still queued *)
  sn_fibers : int;  (** live (blocked or runnable) fibers *)
  sn_inflight : int;  (** unacknowledged reliable envelopes *)
  sn_reissues : int;  (** DSM watchdog trips so far *)
}

val create :
  ?snapshots:int -> ?dump_on_watchdog:bool -> path:string -> unit -> t
(** A recorder that dumps to [path]. The event ring holds the last 512
    events; [snapshots] (default 64) bounds the snapshot ring. [dump_on_watchdog]
    (default true) controls whether the first DSM watchdog trip triggers a
    dump — chaos campaigns disable it (watchdog trips are routine under
    injected faults there; the oracle is the failure signal). *)

val path : t -> string
val dump_on_watchdog : t -> bool

val wrap : t -> Trace.sink -> Trace.sink
(** A sink that records every event into the ring, evicting the oldest
    past capacity, and behaves exactly like the
    argument otherwise (same buffering, same downstream callback). Wrapping
    {!Trace.null} yields a ring-only sink. *)

val snapshot : t -> snapshot -> unit

val snapshots : t -> snapshot list

val dump : t -> reason:string -> unit
(** Write the ["diva-flight/1"] dump to {!path}. Only the first dump
    writes; later calls are ignored ({!dumped} tells). Never raises — a
    recorder that cannot write its file warns on stderr rather than
    masking the failure that triggered it. *)

val dumped : t -> bool

val dump_on_error : t -> label:string -> ('a, string) result -> unit
(** [dump_on_error t ~label (Error e)] dumps with reason ["label: e"];
    [Ok _] is a no-op. The chaos driver feeds oracle verdicts through
    this. *)

val report : Json.t -> (string, string) result
(** Render a parsed ["diva-flight/1"] dump as a human-readable report
    (the [divasim profile] command accepts both artifact kinds). *)
