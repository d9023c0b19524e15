(** Synthetic load generator: drives the {!Diva_core.Dsm} façade from one
    fiber per processor according to a {!Spec}.

    Every processor draws keys from its own deterministic PRNG stream
    (derived from the spec seed and the processor id), so a
    (spec, mesh, strategy) triple yields a bit-identical simulation on
    every run — including the DSM trace it records when given an enabled
    observability sink. *)

type result = {
  measurements : Diva_harness.Runner.measurements;
  latency : Latency.t;
}

val run :
  ?obs:Diva_harness.Runner.obs ->
  ?on_net:(Diva_simnet.Network.t -> unit) ->
  ?oracle:Oracle.t ->
  dims:int array ->
  strategy:Diva_core.Dsm.strategy ->
  Spec.t ->
  result
(** Build the mesh ([Spec.seed] seeds the network), install observability,
    create one shared variable per key (key [k] homed on processor
    [k mod P]), run the per-processor fibers to completion and report the
    paper's measurements plus the latency/throughput profile. Raises
    [Invalid_argument] on a spec that fails {!Spec.validate} or a
    locality model inconsistent with the mesh.

    With [oracle], every read and write is recorded against the coherence
    {!Oracle} as {!Driver.issue} describes; the random payload is still
    drawn, so keys, op kinds and timing do not change. *)
