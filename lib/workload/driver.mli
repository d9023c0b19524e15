(** The load driver under every load source: the synthetic closed loop
    ({!Generator}), trace replay ({!Replay}) and the open-loop service
    ([Diva_service.Engine]). It owns the run skeleton, the key variables,
    the one path a read or write is issued by, and the latency samples;
    a source brings only its control loop: what each processor issues,
    and when. *)

type t
(** One run in progress. *)

val run :
  obs:Diva_harness.Runner.obs ->
  on_net:(Diva_simnet.Network.t -> unit) option ->
  oracle:Oracle.t option ->
  seed:int ->
  dims:int array ->
  strategy:Diva_core.Dsm.strategy ->
  capacity:int ->
  (t -> int -> unit) ->
  Diva_harness.Runner.measurements * Latency.t
(** [run ... ~capacity source] is {!Diva_harness.Runner.simulate} over a
    fresh DSM: [source] sets up the run and returns each processor's
    fiber. The result is the paper's measurements and the summary of
    every {!issue}d operation's latency; [capacity] is the sample
    buffer's initial size. *)

val net : t -> Diva_simnet.Network.t
val dsm : t -> Diva_core.Dsm.t

val var :
  t -> key:int -> name:string -> owner:int -> size:int -> int Diva_core.Dsm.var
(** A DSM variable with initial value 0, declared to the oracle as [key]. *)

val key_vars :
  t -> prefix:string -> size:int -> int -> int Diva_core.Dsm.var array
(** [key_vars t ~prefix ~size n]: one {!var} per key [k < n], named
    [prefix ^ k] and homed on processor [k mod P]. *)

val issue :
  t -> int -> key:int -> int Diva_core.Dsm.var -> t0:float -> read:bool ->
  value:int -> unit
(** [issue t p ~key v ~t0 ~read ~value] reads [v], or writes [value] to
    it, from processor [p] (fiber context), then records the latency
    sample [now - t0]. With an oracle, the operation is recorded as the
    real-time interval it ran in, and a write stores
    {!Oracle.next_write_value} instead of [value]: values never change
    the simulated execution, so a checked run issues the bit-identical
    operation sequence as the same run unchecked. *)
