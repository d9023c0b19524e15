(** Parallel mesh traffic simulation — the {!Par_engine} showcase.

    A synthetic packet workload on a 2-D mesh: per-node Poisson injection,
    dimension-order wormhole routing with per-hop header latency and
    directed-link queueing. Unlike the DSM stack (whose eager wormhole
    model has zero lookahead and is therefore inherently serial), every
    inter-row interaction here takes at least one hop, so the model shards
    one-row-per-shard under the conservative engine and runs on any number
    of domains with {b byte-identical} results.

    Determinism: per-node PRNG streams are derived from the seed alone,
    link occupancy is owned by the source node's shard, and per-shard
    statistics are merged in shard order — nothing depends on the domain
    count or OS scheduling. *)

type pattern =
  | Uniform  (** every other node equally likely *)
  | Transpose  (** node (r, c) sends to (c, r) *)
  | Hotspot  (** 20% of traffic converges on node 0 *)

val pattern_name : pattern -> string
val pattern_of_string : string -> pattern option

type result = {
  r_injected : int;
  r_delivered : int;  (** always equals [r_injected] after drain *)
  r_lat_mean_us : float;
  r_lat_max_us : float;
  r_hops : int;
  r_events : int;  (** engine events executed *)
}

val run :
  ?domains:int ->
  ?telemetry:Par_engine.telemetry ->
  ?seed:int ->
  ?size:int ->
  rows:int ->
  cols:int ->
  rate:float ->
  horizon:float ->
  pattern:pattern ->
  unit ->
  result
(** [run ~rows ~cols ~rate ~horizon ~pattern ()] injects packets at
    [rate] packets/us per node until the simulated [horizon] (us), then
    drains in-flight packets. [size] is the packet payload in bytes
    (default 64); [domains] defaults to 1. The result is identical for
    every [domains] value, with or without [telemetry] (see
    {!Par_engine.run}). *)

val render : result -> string
(** One-line deterministic summary (no wall-clock), suitable for
    byte-comparing runs. *)
