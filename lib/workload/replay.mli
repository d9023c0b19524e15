(** Replay a recorded run's DSM access stream against any strategy, mesh
    embedding, or seed.

    The input is a [diva-event-trace] ({!Diva_obs.Streaming}), the one
    trace format every [divasim] command writes with [--events]: its
    {!Diva_obs.Trace.Var_decl} and {!Diva_obs.Trace.Dsm_access} events
    are a complete record of the run's shared-memory behaviour, and every
    other event is ignored. Each processor's fiber re-issues its recorded
    operations in program order through the {!Diva_core.Dsm} façade, so
    the full protocol (caching, combining, invalidation, locks, barriers)
    runs again:

    - {b Closed loop}: each operation is issued the moment the previous
      one completes — as fast as the protocol allows. Replaying a trace
      closed-loop under the {e recording} strategy and seed reproduces a
      computation-free run (e.g. matmul measured as in the paper)
      bit for bit.
    - {b Open loop}: the recorded inter-operation gaps (think/compute
      time of the original application) are re-inserted as local
      computation, so the offered load keeps the recorded temporal shape
      even when the strategy under test changes the per-op latencies.

    Reduce operations are re-issued as all-reduces of the recorded wire
    size with a trivial combiner; distinct reducers of equal size are
    collapsed (payload values are not part of the timing model, reducer
    identity only matters when two same-size reductions overlap). *)

type mode = Closed_loop | Open_loop

val mode_name : mode -> string

type t = private {
  dims : int array;  (** mesh of the recorded run *)
  seed : int;  (** network seed of the recorded run *)
  events : Diva_obs.Trace.event list;
      (** its [Var_decl] and [Dsm_access] events, in emission order
          (operations in completion order) *)
}

val of_events :
  dims:int array -> seed:int -> Diva_obs.Trace.event list -> t
(** Keep the replayed events of a traced run's event list. *)

val read : string -> (t, string) result
(** Read an event-trace file line by line, keeping only the replayed
    events; mesh and seed come from its header. [Error] covers unreadable
    files, a missing or foreign header, unsupported versions and
    malformed lines (each naming the offending line), and a program
    {!run} could not execute: a declaration owned or an operation issued
    outside the mesh, a variable of negative size, an access to an
    undeclared variable, a mesh dimension below 1. *)

val num_ops : t -> int

val run :
  ?obs:Diva_harness.Runner.obs ->
  ?on_net:(Diva_simnet.Network.t -> unit) ->
  ?seed:int ->
  ?mode:mode ->
  strategy:Diva_core.Dsm.strategy ->
  t ->
  Generator.result
(** Defaults: the trace's recorded network seed and [Closed_loop]. The
    mesh dimensions always come from the trace (the access stream is only
    meaningful on its recorded processor count). Raises
    [Invalid_argument] on a program {!read} would have rejected. *)
